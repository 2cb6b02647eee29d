(* The spatial access method over axis-aligned boxes: an R-tree.

   It is the classic Guttman structure with quadratic-free
   simplifications that keep the code small without giving up the
   invariants property tests pin down: insertion descends by least area
   enlargement and splits over-full nodes by sorting along the longer
   MBR axis (an even cut of 9 entries yields 4/5, both above the min
   fill of 3); deletion condenses under-full nodes by re-inserting
   their surviving entries at leaf level, so depth stays uniform. Bulk
   loading is Sort-Tile-Recursive: sort by centre x, tile into vertical
   slabs, sort each slab by centre y, cut into near-full leaves, and
   recurse on the leaf MBRs until a single root remains. *)

type box = { minx : float; miny : float; maxx : float; maxy : float }

let finite f = Float.is_finite f

let box minx miny maxx maxy =
  if not (finite minx && finite miny && finite maxx && finite maxy) then
    invalid_arg "Spatial_index.box: non-finite coordinate";
  if maxx < minx || maxy < miny then
    invalid_arg "Spatial_index.box: inverted box";
  { minx; miny; maxx; maxy }

let point_box x y = box x y x y
let pad b eps = box (b.minx -. eps) (b.miny -. eps) (b.maxx +. eps) (b.maxy +. eps)

let box_of_region r =
  match Region.bounding_box r with
  | None -> None
  | Some (minx, miny, maxx, maxy) -> Some { minx; miny; maxx; maxy }

let box_overlap a b =
  a.minx <= b.maxx && b.minx <= a.maxx && a.miny <= b.maxy && b.miny <= a.maxy

let box_union a b =
  {
    minx = Float.min a.minx b.minx;
    miny = Float.min a.miny b.miny;
    maxx = Float.max a.maxx b.maxx;
    maxy = Float.max a.maxy b.maxy;
  }

let box_equal a b =
  a.minx = b.minx && a.miny = b.miny && a.maxx = b.maxx && a.maxy = b.maxy

let center b = ((b.minx +. b.maxx) /. 2.0, (b.miny +. b.maxy) /. 2.0)
let area b = (b.maxx -. b.minx) *. (b.maxy -. b.miny)
let enlargement b e = area (box_union b e) -. area b

(* ------------------------------------------------------------- R-tree *)

let max_entries = 8
let min_entries = 3

type 'a entry = { e_box : box; e_val : 'a }

type 'a node =
  | Leaf of { mutable l_mbr : box; mutable l_entries : 'a entry list }
  | Node of { mutable n_mbr : box; mutable n_children : 'a node list }

let mbr_of = function Leaf l -> l.l_mbr | Node n -> n.n_mbr

let mbr_of_entries = function
  | [] -> invalid_arg "Spatial_index: empty node"
  | e :: es -> List.fold_left (fun b x -> box_union b x.e_box) e.e_box es

let mbr_of_children = function
  | [] -> invalid_arg "Spatial_index: empty node"
  | c :: cs -> List.fold_left (fun b x -> box_union b (mbr_of x)) (mbr_of c) cs

(* Split an over-full list in half along the longer axis of its MBR;
   both halves hold at least [max_entries+1]/2 >= min_entries items. *)
let split_list box_of items mbr =
  let key =
    if mbr.maxx -. mbr.minx >= mbr.maxy -. mbr.miny then fun it ->
      fst (center (box_of it))
    else fun it -> snd (center (box_of it))
  in
  let sorted = List.stable_sort (fun a b -> Float.compare (key a) (key b)) items in
  let n = List.length sorted in
  let rec take k = function
    | xs when k = 0 -> ([], xs)
    | [] -> ([], [])
    | x :: xs ->
        let l, r = take (k - 1) xs in
        (x :: l, r)
  in
  take (n / 2) sorted

(* Insert one entry; returns a freshly split-off sibling when the target
   node over-flowed. *)
let rec node_insert node entry =
  match node with
  | Leaf l ->
      l.l_entries <- entry :: l.l_entries;
      l.l_mbr <- box_union l.l_mbr entry.e_box;
      if List.length l.l_entries > max_entries then (
        let keep, give = split_list (fun e -> e.e_box) l.l_entries l.l_mbr in
        l.l_entries <- keep;
        l.l_mbr <- mbr_of_entries keep;
        Some (Leaf { l_mbr = mbr_of_entries give; l_entries = give }))
      else None
  | Node n ->
      let child =
        match n.n_children with
        | [] -> invalid_arg "Spatial_index: empty interior node"
        | c :: cs ->
            List.fold_left
              (fun best c ->
                let eb = enlargement (mbr_of best) entry.e_box
                and ec = enlargement (mbr_of c) entry.e_box in
                if
                  ec < eb
                  || (ec = eb && area (mbr_of c) < area (mbr_of best))
                then c
                else best)
              c cs
      in
      n.n_mbr <- box_union n.n_mbr entry.e_box;
      (match node_insert child entry with
      | None -> None
      | Some sibling ->
          n.n_children <- sibling :: n.n_children;
          if List.length n.n_children > max_entries then (
            let keep, give = split_list mbr_of n.n_children n.n_mbr in
            n.n_children <- keep;
            n.n_mbr <- mbr_of_children keep;
            Some (Node { n_mbr = mbr_of_children give; n_children = give }))
          else None)

let rec collect_entries node acc =
  match node with
  | Leaf l -> List.rev_append l.l_entries acc
  | Node n -> List.fold_left (fun acc c -> collect_entries c acc) acc n.n_children

(* Delete one entry (box equality + physical value equality). Returns
   [`Removed (orphans, drop)] where [orphans] are entries of condensed
   under-full nodes awaiting re-insertion and [drop] tells the caller to
   detach this node. *)
let rec node_delete node qbox v =
  match node with
  | Leaf l ->
      let found = ref false in
      let keep =
        List.filter
          (fun e ->
            if (not !found) && e.e_val == v && box_equal e.e_box qbox then (
              found := true;
              false)
            else true)
          l.l_entries
      in
      if not !found then `Not_found
      else if List.length keep < min_entries then `Removed (keep, true)
      else (
        l.l_entries <- keep;
        l.l_mbr <- mbr_of_entries keep;
        `Removed ([], false))
  | Node n ->
      let rec try_children = function
        | [] -> `Not_found
        | c :: rest ->
            if not (box_overlap (mbr_of c) qbox) then try_children rest
            else (
              match node_delete c qbox v with
              | `Not_found -> try_children rest
              | `Removed (orphans, drop) ->
                  if drop then n.n_children <- List.filter (( != ) c) n.n_children;
                  if List.length n.n_children < min_entries then
                    `Removed
                      ( List.fold_left
                          (fun acc ch -> collect_entries ch acc)
                          orphans n.n_children,
                        true )
                  else (
                    n.n_mbr <- mbr_of_children n.n_children;
                    `Removed (orphans, false)))
      in
      try_children n.n_children

let rec node_range node qbox emit =
  match node with
  | Leaf l ->
      List.iter (fun e -> if box_overlap e.e_box qbox then emit e.e_val) l.l_entries
  | Node n ->
      List.iter
        (fun c -> if box_overlap (mbr_of c) qbox then node_range c qbox emit)
        n.n_children

(* STR bulk load: entries -> one level of packed leaves -> recurse on
   their MBRs until a single node remains. *)
let str_pack entries =
  let pack_level box_of make items =
    let n = List.length items in
    let n_leaves = (n + max_entries - 1) / max_entries in
    let n_slabs =
      int_of_float (Float.ceil (sqrt (float_of_int n_leaves)))
    in
    let slab_size = (n + n_slabs - 1) / n_slabs in
    let by key xs =
      List.stable_sort
        (fun a b -> Float.compare (key (box_of a)) (key (box_of b)))
        xs
    in
    let rec take i = function
      | xs when i = 0 -> ([], xs)
      | [] -> ([], [])
      | x :: xs ->
          let l, r = take (i - 1) xs in
          (x :: l, r)
    in
    (* ceil(n/k) chunks of near-equal size: a balanced cut never leaves
       an under-full tail (for n > max_entries every chunk holds at
       least min_entries items) *)
    let chunks_balanced k xs =
      let n = List.length xs in
      if n = 0 then []
      else
        let c = (n + k - 1) / k in
        let base = n / c and extra = n mod c in
        let rec go i xs =
          if i >= c then []
          else
            let chunk, rest = take (base + if i < extra then 1 else 0) xs in
            chunk :: go (i + 1) rest
        in
        go 0 xs
    in
    by (fun b -> fst (center b)) items
    |> chunks_balanced slab_size
    |> List.concat_map (fun slab ->
           chunks_balanced max_entries (by (fun b -> snd (center b)) slab))
    |> List.map make
  in
  let rec up nodes =
    match nodes with
    | [ one ] -> one
    | _ ->
        up
          (pack_level mbr_of
             (fun cs -> Node { n_mbr = mbr_of_children cs; n_children = cs })
             nodes)
  in
  match entries with
  | [] -> None
  | _ ->
      Some
        (up
           (pack_level
              (fun e -> e.e_box)
              (fun es -> Leaf { l_mbr = mbr_of_entries es; l_entries = es })
              entries))

(* ---------------------------------------------------------- interface *)

type 'a t = { mutable root : 'a node option }

let insert_entry t entry =
  match t.root with
  | None -> t.root <- Some (Leaf { l_mbr = entry.e_box; l_entries = [ entry ] })
  | Some root -> (
      match node_insert root entry with
      | None -> ()
      | Some sibling ->
          t.root <-
            Some
              (Node
                 {
                   n_mbr = box_union (mbr_of root) (mbr_of sibling);
                   n_children = [ root; sibling ];
                 }))

let insert t b v = insert_entry t { e_box = b; e_val = v }

let bulk entries =
  { root = str_pack (List.map (fun (b, v) -> { e_box = b; e_val = v }) entries) }

let remove t b v =
  match t.root with
  | None -> false
  | Some root -> (
      match node_delete root b v with
      | `Not_found -> false
      | `Removed (orphans, drop) ->
          if drop then t.root <- None;
          (* collapse single-child root chains left by condensing *)
          let rec collapse () =
            match t.root with
            | Some (Node { n_children = [ only ]; _ }) ->
                t.root <- Some only;
                collapse ()
            | _ -> ()
          in
          collapse ();
          List.iter (fun e -> insert_entry t e) orphans;
          true)

let range t qbox =
  match t.root with
  | None -> []
  | Some root ->
      let acc = ref [] in
      node_range root qbox (fun v -> acc := v :: !acc);
      !acc

let validate t =
  match t.root with
  | None -> Ok ()
  | Some root -> (
      let exception Bad of string in
      (* a node's height *)
      let rec check ~is_root node =
        match node with
        | Leaf l ->
            let n = List.length l.l_entries in
            if n > max_entries then
              raise (Bad (Printf.sprintf "leaf fan-out %d > %d" n max_entries));
            if (not is_root) && n < min_entries then
              raise (Bad (Printf.sprintf "leaf fan-out %d < %d" n min_entries));
            if n = 0 then raise (Bad "empty leaf");
            if not (box_equal l.l_mbr (mbr_of_entries l.l_entries)) then
              raise (Bad "leaf MBR is not the union of its entries");
            1
        | Node nd -> (
            let n = List.length nd.n_children in
            if n > max_entries then
              raise (Bad (Printf.sprintf "node fan-out %d > %d" n max_entries));
            if (not is_root) && n < min_entries then
              raise (Bad (Printf.sprintf "node fan-out %d < %d" n min_entries));
            if is_root && n < 2 then raise (Bad "root node with fewer than 2 children");
            if not (box_equal nd.n_mbr (mbr_of_children nd.n_children)) then
              raise (Bad "node MBR is not the union of its children");
            match List.map (check ~is_root:false) nd.n_children with
            | d :: ds when List.for_all (( = ) d) ds -> 1 + d
            | _ -> raise (Bad "leaves at unequal depths"))
      in
      match check ~is_root:true root with
      | (_ : int) -> Ok ()
      | exception Bad msg -> Error msg)
