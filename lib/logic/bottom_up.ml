module Sx = Gdp_space.Spatial_index

(* An open-addressed table from non-negative ints to values: linear
   probing over two flat arrays, backward-shift deletion, no allocation
   per entry. [find] returns the table's [absent] value for a missing
   key. *)
module Itbl = struct
  type 'a t = {
    mutable keys : int array;  (* -1: a free slot *)
    mutable vals : 'a array;
    mutable size : int;
    absent : 'a;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

  let create n absent =
    let cap = pow2 (4 * n / 3) 16 in
    { keys = Array.make cap (-1); vals = Array.make cap absent; size = 0; absent }

  (* Fibonacci hashing: the product's middle bits *)
  let home t k = (k * 0x1e3779b97f4a7c15) lsr 29 land (Array.length t.keys - 1)

  let rec slot t k i =
    let x = Array.unsafe_get t.keys i in
    if x = k || x < 0 then i else slot t k ((i + 1) land (Array.length t.keys - 1))

  let length t = t.size
  let mem t k = t.keys.(slot t k (home t k)) = k

  let find t k =
    let i = slot t k (home t k) in
    if t.keys.(i) = k then t.vals.(i) else t.absent

  let resize t =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) t.absent;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t k (home t k) in
          t.keys.(j) <- k;
          t.vals.(j) <- vals.(i)
        end)
      keys

  (* binds [k] unless it is bound already; [true] when it was not *)
  let add t k v =
    let i = slot t k (home t k) in
    t.keys.(i) <> k
    && begin
         t.keys.(i) <- k;
         t.vals.(i) <- v;
         t.size <- t.size + 1;
         if 4 * t.size > 3 * Array.length t.keys then resize t;
         true
       end

  let replace t k v =
    let i = slot t k (home t k) in
    if t.keys.(i) = k then t.vals.(i) <- v else ignore (add t k v : bool)

  let remove t k =
    let mask = Array.length t.keys - 1 in
    let i = slot t k (home t k) in
    if t.keys.(i) = k then begin
      t.size <- t.size - 1;
      (* pull each later member of the probe run whose home does not lie
         cyclically in (hole, j] back into the hole *)
      let hole = ref i and j = ref ((i + 1) land mask) in
      while t.keys.(!j) >= 0 do
        let h = home t t.keys.(!j) in
        if
          if !hole <= !j then h <= !hole || h > !j else h <= !hole && h > !j
        then begin
          t.keys.(!hole) <- t.keys.(!j);
          t.vals.(!hole) <- t.vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      t.keys.(!hole) <- -1;
      t.vals.(!hole) <- t.absent
    end
end

(* An insertion-ordered id map: the DRed sets iterate in the order their
   facts were first touched, which depends on neither node ids nor
   hashes, so a loaded store and a freshly derived one maintain alike. *)
module Omap = struct
  type 'a t = { tbl : 'a Itbl.t; mutable order : int list (* newest first *) }

  let create absent = { tbl = Itbl.create 16 absent; order = [] }
  let mem m k = Itbl.mem m.tbl k

  (* the first binding of a key wins *)
  let add m k v = if Itbl.add m.tbl k v then m.order <- k :: m.order

  let fold f m acc =
    List.fold_left (fun acc k -> f k (Itbl.find m.tbl k) acc) acc (List.rev m.order)

  let iter f m = fold (fun k v () -> f k v) m ()
end

module Imap = Map.Make (Int)

(* The node bank of one fixpoint: every ground term it holds, each once,
   as an int id. A node is a tag, a payload (a symbol id, the integer
   itself, or the index of a float) and the ids of its children; it is
   interned by its content hash (tag, payload hash and the children's
   hashes) through an open-addressed table, so equal terms get equal
   ids and nothing hashes a string or walks a tree once a term is in.
   The hash depends on content only, not on ids, so one term hashes
   alike in every bank. Children are always interned before their
   parent: a node's id is above its children's. Terms are rebuilt from
   ids on demand, memoised per id, so rebuilt terms share the bank's
   DAG. *)
module Bank = struct
  let t_atom = 0
  let t_int = 1
  let t_float = 2
  let t_str = 3
  let t_app = 4

  type t = {
    mutable hd : int array;  (* content hash lsl 3 lor tag *)
    mutable pay : int array;
    mutable off : int array;
        (* node i's children: kids.(off.(i)) .. kids.(off.(i + 1) - 1) *)
    mutable kids : int array array;  (* in chunks, see [reserve] *)
    mutable n : int;
    mutable slots : int array;
        (* by content hash: 30 hash bits above a node id; -1: free *)
    syms : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable sym_hash : int array;
    floats : (float, int) Hashtbl.t;  (* [compare]: one -0./0., one NaN *)
    mutable float_vals : float array;
    mutable stack : int array;  (* children of the nodes being built *)
    mutable sp : int;
    terms : Term.t Itbl.t;  (* the terms rebuilt so far, by id *)
    mutable ranks : int array;
        (* the rank of each node the store holds as a fact, else -1 *)
  }

  let unset = Term.Atom "\000unset"

  (* The kids column is kept in chunks of 4096 slots: slot [o] is at
     [(o lsr 12)] and [(o land 4095)], the latter in bounds in every
     chunk. It is the largest column, about four slots a node, and it
     grows by adding chunks as nodes arrive, copying none, so it is
     never sized ahead: a snapshot load adds the chunks its records
     fill and no more. Grown as one flat array, it left each outgrown
     copy on the major heap until a later cycle swept it, so a run's
     peak heap hinged on where that cycle fell. Its readers and writers
     spell the slot arithmetic out: the compiler left a helper for it
     un-inlined, which slowed snapshot loads and answers by 4-11%. *)

  (* [kids] with room for the slots below [n]: the chunks it lacks *)
  let reserve kids n =
    let have = Array.length kids in
    let need = (n + 4095) lsr 12 in
    if need <= have then kids
    else Array.init need (fun c -> if c < have then kids.(c) else Array.make 4096 0)

  let grow a len fill =
    let bigger = Array.make len fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  (* [nodes] sizes the node columns, so a bank whose node count is
     known up front (a snapshot load) never copies them while it fills *)
  let create ~nodes =
    let cap = max 64 nodes in
    {
      hd = Array.make cap 0;
      pay = Array.make cap 0;
      off = Array.make (cap + 1) 0;
      kids = [||];
      n = 0;
      slots = Array.make (Itbl.pow2 (4 * cap / 3) 128) (-1);
      syms = Hashtbl.create 64;
      names = Array.make 64 "";
      sym_hash = Array.make 64 0;
      floats = Hashtbl.create 8;
      float_vals = Array.make 8 0.0;
      stack = Array.make 64 0;
      sp = 0;
      terms = Itbl.create 16 unset;
      ranks = Array.make cap (-1);
    }

  let size b = b.n

  (* A fact's relation is a function of its term, so a node is stored in
     one relation at most, and one rank column serves them all. *)
  let rank b id = b.ranks.(id)
  let stored b id = b.ranks.(id) >= 0
  let tag b id = b.hd.(id) land 7
  let payload b id = b.pay.(id)
  let arity b id = b.off.(id + 1) - b.off.(id)
  let child b id j =
    let o = b.off.(id) + j in
    Array.unsafe_get b.kids.(o lsr 12) (o land 4095)
  let n_syms b = Hashtbl.length b.syms
  let name b y = b.names.(y)
  let float_val b id = b.float_vals.(b.pay.(id))

  let sym b s =
    match Hashtbl.find_opt b.syms s with
    | Some y -> y
    | None ->
        let y = Hashtbl.length b.syms in
        if y = Array.length b.names then begin
          b.names <- grow b.names (2 * y) "";
          b.sym_hash <- grow b.sym_hash (2 * y) 0
        end;
        b.names.(y) <- s;
        b.sym_hash.(y) <- Hashtbl.hash s;
        Hashtbl.add b.syms s y;
        y

  let float_index b f =
    match Hashtbl.find_opt b.floats f with
    | Some x -> x
    | None ->
        let x = Hashtbl.length b.floats in
        if x = Array.length b.float_vals then
          b.float_vals <- grow b.float_vals (2 * x) 0.0;
        b.float_vals.(x) <- f;
        Hashtbl.add b.floats f x;
        x

  let push b c =
    if b.sp = Array.length b.stack then b.stack <- grow b.stack (2 * b.sp) 0;
    b.stack.(b.sp) <- c;
    b.sp <- b.sp + 1

  let mix h x = (h lxor x) * 0x100000001b3
  (* A slot keeps 30 bits of its node's hash above the id, so a probe
     passes over other nodes, and a rehash moves them, without reading
     the node columns. *)
  let hash_bits hd = (hd lsr 3) land 0x3fff_ffff
  let id_bits = 0xffff_ffff
  let home bits mask = (bits * 0x1e3779b97f4a7c15) lsr 29 land mask

  (* The children of a node being closed are staged from [base]: on
     the stack, or, when [direct] (a snapshot record), already in the
     kids column where the node's own children go. *)
  let rec same_kids b id direct base k j =
    j = k
    || child b id j
       = (if direct then
            let o = base + j in
            Array.unsafe_get b.kids.(o lsr 12) (o land 4095)
          else b.stack.(base + j))
       && same_kids b id direct base k (j + 1)

  let rehash b =
    let mask = (2 * Array.length b.slots) - 1 in
    let slots = Array.make (mask + 1) (-1) in
    Array.iter
      (fun s ->
        if s >= 0 then begin
          let i = ref (home (s lsr 32) mask) in
          while slots.(!i) >= 0 do
            i := (!i + 1) land mask
          done;
          slots.(!i) <- s
        end)
      b.slots;
    b.slots <- slots

  let add b hd pay direct base k at =
    let id = b.n in
    if id = Array.length b.hd then begin
      let cap = id + (id / 2) in
      b.hd <- grow b.hd cap 0;
      b.pay <- grow b.pay cap 0;
      b.off <- grow b.off (cap + 1) 0;
      b.ranks <- grow b.ranks cap (-1)
    end;
    let o = b.off.(id) in
    if not direct then begin
      if o + k > Array.length b.kids lsl 12 then b.kids <- reserve b.kids (o + k);
      for j = 0 to k - 1 do
        let c = o + j in
        Array.unsafe_set b.kids.(c lsr 12) (c land 4095) b.stack.(base + j)
      done
    end;
    b.hd.(id) <- hd;
    b.pay.(id) <- pay;
    b.off.(id + 1) <- o + k;
    b.n <- id + 1;
    b.slots.(at) <- (hash_bits hd lsl 32) lor id;
    if 4 * b.n > 3 * Array.length b.slots then rehash b;
    id

  (* The node [tag pay] over its [k] staged children: its id, interned
     when [insert] is set, else -1 when the bank lacks it. Children
     staged on the stack (its callers [push] them) are popped. [ph] is
     the payload's contribution to the hash. *)
  let close b tag pay ph direct base k insert =
    let h = ref (mix (mix 0x811c9dc5 tag) ph) in
    for j = base to base + k - 1 do
      let c =
        if direct then Array.unsafe_get b.kids.(j lsr 12) (j land 4095)
        else b.stack.(j)
      in
      h := mix !h (b.hd.(c) lsr 3)
    done;
    let hd = ((!h land (max_int lsr 3)) lsl 3) lor tag in
    let bits = hash_bits hd in
    let mask = Array.length b.slots - 1 in
    let i = ref (home bits mask) and found = ref (-2) in
    while !found = -2 do
      let s = b.slots.(!i) in
      if s < 0 then found := -1
      else if
        s lsr 32 = bits
        &&
        let id = s land id_bits in
        b.hd.(id) = hd && b.pay.(id) = pay
        && arity b id = k
        && same_kids b id direct base k 0
      then found := s land id_bits
      else i := (!i + 1) land mask
    done;
    if not direct then b.sp <- base;
    if !found >= 0 || not insert then !found
    else add b hd pay direct base k !i

  let app b f k insert = close b t_app f b.sym_hash.(f) false (b.sp - k) k insert

  (* A compound record of a snapshot, [f] over [k] children that [r]
     holds next, each an id below [bound]: each goes straight into the
     kids column, where [add] would copy it from the stack, and the node
     is interned. *)
  let record b f k r bound =
    let o = b.off.(b.n) in
    if o + k > Array.length b.kids lsl 12 then b.kids <- reserve b.kids (o + k);
    for j = o to o + k - 1 do
      Array.unsafe_set b.kids.(j lsr 12) (j land 4095) (Wire.below r bound "child")
    done;
    close b t_app f b.sym_hash.(f) true o k true

  (* a leaf node from its tag and payload, as a record of a snapshot
     spells it *)
  let leaf b tag pay insert =
    let ph =
      if tag = t_int then pay
      else if tag = t_float then Hashtbl.hash b.float_vals.(pay)
      else b.sym_hash.(pay)
    in
    close b tag pay ph false b.sp 0 insert

  let rec intern b (t : Term.t) =
    match t with
    | Atom s -> leaf b t_atom (sym b s) true
    | Int n -> leaf b t_int n true
    | Float f -> leaf b t_float (float_index b f) true
    | Str s -> leaf b t_str (sym b s) true
    | App (f, args) ->
        let k = List.fold_left (fun k a -> push b (intern b a); k + 1) 0 args in
        app b (sym b f) k true
    | Var _ -> invalid_arg "Bottom_up: a non-ground term"

  (* the id of [t], or -1 when the bank does not hold it *)
  let rec lookup b (t : Term.t) =
    let named tag s =
      match Hashtbl.find_opt b.syms s with
      | Some y -> leaf b tag y false
      | None -> -1
    in
    match t with
    | Atom s -> named t_atom s
    | Int n -> leaf b t_int n false
    | Float f -> (
        match Hashtbl.find_opt b.floats f with
        | Some x -> leaf b t_float x false
        | None -> -1)
    | Str s -> named t_str s
    | App (f, args) -> (
        match Hashtbl.find_opt b.syms f with
        | None -> -1
        | Some y ->
            let base = b.sp in
            if
              List.for_all
                (fun a ->
                  let c = lookup b a in
                  c >= 0 && (push b c; true))
                args
            then app b y (b.sp - base) false
            else begin
              b.sp <- base;
              -1
            end)
    | Var _ -> -1

  let rec term b id =
    let t = Itbl.find b.terms id in
    if t != unset then t
    else begin
      let pay = b.pay.(id) in
      let t : Term.t =
        match tag b id with
        | 0 -> Atom b.names.(pay)
        | 1 -> Int pay
        | 2 -> Float b.float_vals.(pay)
        | 3 -> Str b.names.(pay)
        | _ ->
            App
              ( b.names.(pay),
                List.init (arity b id) (fun j -> term b (child b id j)) )
      in
      Itbl.replace b.terms id t;
      t
    end

  (* the subterm at a path ({!Path_key}), -1 when the node lacks it *)
  let rec at b id = function
    | [] -> id
    | j :: path ->
        if tag b id = t_app && j < arity b id then at b (child b id j) path
        else -1
end

(* A materialised relation over the bank: its facts' ids as an int
   column in insertion order, and lazily built subterm indexes for join
   probes. Membership and ranks live in the bank's rank column. A rank
   is the fixpoint's insertion counter when the fact entered the store,
   so ranks increase along the column. An index is keyed by one path
   into the fact — [[3; 0]] is the first element of the list at
   argument 3 — and maps the id of the subterm there to the facts
   carrying that subterm; a fact lacking the path is in no bucket.
   Unification checks the literal's other ground subterms. *)
module Relation = struct
  (* A lazily built spatial index over one argument position: facts whose
     argument there carries an extractable point live in the structure
     keyed by their degenerate point box; the (normally empty) side list
     holds the stragglers a probe must always also return — the probe is
     a sound pre-filter, never a semantic filter. *)
  type spat = {
    s_point : int -> (float * float) option;  (* a fact's point there *)
    s_idx : int Sx.t;
    mutable s_rest : int list;
  }

  type t = {
    mutable ids : int array;  (* slots [0, n) valid, insertion order *)
    mutable n : int;
    mutable indexes : (int list * int list Itbl.t) list;
        (* subterm path -> probe table *)
    mutable spatials : (int * spat) list;
        (* point-carrying argument position -> spatial index *)
    mutable pass_new : int list;
        (* the facts the current saturation pass added, newest first *)
    mutable scanned : int list list;
        (* the paths a query probe has scanned for want of an index *)
  }

  let create () =
    {
      ids = Array.make 16 0;
      n = 0;
      indexes = [];
      spatials = [];
      pass_new = [];
      scanned = [];
    }

  let cardinal r = r.n

  (* insertion order: derivation cascades within a pass, and therefore
     the pass counter, stay deterministic and independent of hash order.
     Facts added while [f] runs are not visited. *)
  let iter f r =
    for i = 0 to r.n - 1 do
      f (Array.unsafe_get r.ids i)
    done

  let elements b r = List.init r.n (fun i -> Bank.term b r.ids.(i))

  let index_insert b idx path id =
    let k = Bank.at b id path in
    if k >= 0 then Itbl.replace idx k (id :: Itbl.find idx k)

  (* Buckets hold their facts in reverse insertion order: built from the
     insertion-order column by prepending, then maintained by prepending
     on [add] and order-preserving filtering on [remove]. *)
  let index r b path =
    match List.assoc_opt path r.indexes with
    | Some idx -> idx
    | None ->
        let idx = Itbl.create 64 [] in
        iter (index_insert b idx path) r;
        r.indexes <- (path, idx) :: r.indexes;
        idx

  let spat_insert sp id =
    match sp.s_point id with
    | Some (x, y) -> Sx.insert sp.s_idx (Sx.point_box x y) id
    | None -> sp.s_rest <- id :: sp.s_rest

  (* a new spatial index over [apos], bulk-loaded from the facts now *)
  let build_spatial r ~point apos =
    let entries = ref [] and rest = ref [] in
    iter
      (fun id ->
        match point id with
        | Some (x, y) -> entries := (Sx.point_box x y, id) :: !entries
        | None -> rest := id :: !rest)
      r;
    let sp = { s_point = point; s_idx = Sx.bulk !entries; s_rest = !rest } in
    r.spatials <- (apos, sp) :: r.spatials;
    sp

  let rec insert_indexes b id = function
    | [] -> ()
    | (path, idx) :: more ->
        index_insert b idx path id;
        insert_indexes b id more

  let rec insert_spatials id = function
    | [] -> ()
    | (_, sp) :: more ->
        spat_insert sp id;
        insert_spatials id more

  let add r b id rank =
    (not (Bank.stored b id))
    && begin
         b.Bank.ranks.(id) <- rank;
         if r.n = Array.length r.ids then
           r.ids <- Bank.grow r.ids (r.n + (r.n / 2)) 0;
         r.ids.(r.n) <- id;
         r.n <- r.n + 1;
         insert_indexes b id r.indexes;
         insert_spatials id r.spatials;
         true
       end

  (* Bulk load for snapshot import: slots [0, n) of [ids] hold a saved
     relation's facts in insertion order, and the relation takes the
     column itself. *)
  let load r ids n =
    r.ids <- ids;
    r.n <- n

  (* Physical deletion for incremental maintenance, one batch at a time:
     unstore every member of [ids], then compact the column once (later
     scans stay deterministic) and filter once each index bucket a
     removed fact sat in. Returns the members of [ids] that were
     present, in order. *)
  let remove r b ids =
    let live x = Bank.stored b x in
    let gone =
      List.filter (fun id -> live id && (b.Bank.ranks.(id) <- -1; true)) ids
    in
    if gone <> [] then begin
      let j = ref 0 in
      for i = 0 to r.n - 1 do
        let x = r.ids.(i) in
        if live x then begin
          r.ids.(!j) <- x;
          incr j
        end
      done;
      r.n <- !j;
      List.iter
        (fun (path, idx) ->
          let filtered = Itbl.create 16 false in
          List.iter
            (fun id ->
              let k = Bank.at b id path in
              if k >= 0 && Itbl.add filtered k true then
                match List.filter live (Itbl.find idx k) with
                | [] -> Itbl.remove idx k
                | bucket -> Itbl.replace idx k bucket)
            gone)
        r.indexes;
      List.iter
        (fun (_, sp) ->
          List.iter
            (fun id ->
              match sp.s_point id with
              | Some (x, y) ->
                  ignore (Sx.remove sp.s_idx (Sx.point_box x y) id : bool)
              | None -> sp.s_rest <- List.filter live sp.s_rest)
            gone)
        r.spatials
    end;
    gone

  (* The facts of [r] whose subterm at [path] has id [k], from the index
     on [path]. A ground subterm unifies only with an equal one, so the
     bucket holds the unification candidates for that subterm. A key the
     bank lacks ([k < 0]) is carried by no stored fact: the bucket is
     empty, and no index is built for it. *)
  let bucket r b path k = if k < 0 then [] else Itbl.find (index r b path) k

  (* [bucket] for a query goal, which may be the only probe of its path
     a process makes (a CLI query is one): the first probe of a path
     without an index compares the subterm there along the id column,
     newest first as a bucket holds them, and builds nothing; the next
     builds the index. *)
  let lookup r b path k =
    if k < 0 || List.mem_assoc path r.indexes || List.mem path r.scanned then
      bucket r b path k
    else begin
      r.scanned <- path :: r.scanned;
      let hits = ref [] in
      for i = 0 to r.n - 1 do
        let id = Array.unsafe_get r.ids i in
        if Bank.at b id path = k then hits := id :: !hits
      done;
      !hits
    end
end

open Datalog

exception Unsupported = Datalog.Unsupported

type baseline = Naive | Scan | Spatial_scan
type refine = Datalog.refine

(* Spatial builtin hooks, supplied by the compiler. [sp_ext] whitelists
   builtins the engine may evaluate natively as [Ext] literals (returning
   the argument positions that must be bound first); [sp_solve] runs one
   ground-input instance and returns its ground solutions; the remaining
   fields let the planner compile spatially guarded joins into index
   probes: region bounding boxes by name, point extraction from pos/2-3
   shaped arguments, whether the space's metric is covered by ±eps boxes
   (cartesian-like coordinates only). *)
type spatial = {
  sp_ext : string * int -> int list option;
  sp_solve : Term.t -> Term.t list;
  sp_region_box : string -> Sx.box option;
  sp_point : Term.t -> (float * float) option;
  sp_boxable : bool;
}

(* Evaluation bounds, per operation (an initial run or one update batch):
   only unsafe function-symbol recursion can reach them. *)
let max_iterations = 10_000
let max_facts = 1_000_000

exception Bound_exceeded of [ `Facts | `Passes ] * int

let prepare db ~refine ~spatial =
  let ext = match spatial with Some sp -> sp.sp_ext | None -> fun _ -> None in
  let facts, rules = parse db ~refine ~ext in
  let stratum_of, n_strata = compute_strata rules (List.map fst facts) in
  (facts, rules, stratum_of, n_strata)

let classify ?(refine = fun _ -> None) ?spatial db =
  match prepare db ~refine ~spatial with
  | _ -> Ok ()
  | exception Unsupported reason -> Error reason

(* ------------------------------------------------------------------ *)
(* spatial plan annotation: a join whose fresh point variable is
   constrained later in the plan by a region-membership guard or a
   bounded-distance guard becomes a spatial index probe. The guard stays
   in the plan — the probe box covers everything the guard can accept
   (the region's bounding box; the ±eps box around the anchor, sound
   only when the space's metric balls fit in Chebyshev boxes), so the
   probe is a pre-filter, never a replacement for the exact test.       *)

let num_const = function
  | Term.Int n -> Some (float_of_int n)
  | Term.Float f -> Some f
  | _ -> None

let annotate_spatial sp bound plan =
  (* argument positions of [atom] holding a fresh variable, bare or
     one constructor deep (the reified [at(P)] shape) *)
  let var_candidates bound atom =
    match atom with
    | Term.App (_, args) ->
        List.mapi
          (fun j a ->
            match a with
            | Term.Var v when not (Iset.mem v.Term.id bound) ->
                Some (j, v.Term.id)
            | Term.App (_, [ Term.Var v ]) when not (Iset.mem v.Term.id bound)
              ->
                Some (j, v.Term.id)
            | _ -> None)
          args
        |> List.filter_map Fun.id
    | _ -> []
  in
  (* an upper bound on variable [d] appearing later in the plan *)
  let dist_bound d rest =
    List.find_map
      (function
        | Cmp (("<" | "=<"), Term.Var v, c) when v.Term.id = d -> num_const c
        | Cmp ((">" | ">="), c, Term.Var v) when v.Term.id = d -> num_const c
        | _ -> None)
      rest
  in
  let probe_for bound rest (j, vid) =
    List.find_map
      (function
        | Ext (_, Term.App ("region_mem", [ Term.Atom name; Term.Var p ]))
          when p.Term.id = vid -> (
            match sp.sp_region_box name with
            | Some b -> Some (j, Sp_within b)
            | None -> None)
        | Ext (_, Term.App ("pt_dist", [ a; b; Term.Var d ]))
          when sp.sp_boxable && not (Iset.mem d.Term.id bound) -> (
            let anchor =
              match (a, b) with
              | Term.Var p, other when p.Term.id = vid -> Some other
              | other, Term.Var p when p.Term.id = vid -> Some other
              | _ -> None
            in
            match anchor with
            | Some other when Iset.subset (vset other) bound -> (
                match dist_bound d.Term.id rest with
                | Some eps when eps >= 0.0 -> Some (j, Sp_near (other, eps))
                | _ -> None)
            | _ -> None)
        | _ -> None)
      rest
  in
  let rec walk bound acc = function
    | [] -> List.rev acc
    | lit :: rest ->
        let lit =
          match lit with
          | Pos (i, rel, atom, None) -> (
              match
                List.find_map (probe_for bound rest)
                  (var_candidates bound atom)
              with
              | Some _ as sprobe -> Pos (i, rel, atom, sprobe)
              | None -> lit)
          | l -> l
        in
        walk (extend_bound bound lit) (lit :: acc) rest
  in
  walk bound [] plan

(* ------------------------------------------------------------------ *)
(* evaluation                                                          *)

type stratum_stats = {
  st_stratum : int;
  st_rules : int;
  st_passes : int;
  st_firings : int;
  st_derived : int;
  st_max_delta : int;
}

type incr_stats = {
  upd_batches : int;
  upd_asserts : int;
  upd_retracts : int;
  upd_noops : int;
  upd_inserted : int;
  upd_deleted : int;
  upd_overdeleted : int;
  upd_rederived : int;
  upd_strata_visited : int;
  upd_strata_recomputed : int;
}

type prov_stats = {
  prov_bytes : int;
  prov_reconstructs : int;
  prov_max_depth : int;
  prov_max_size : int;
}

type stats = {
  bu_passes : int;
  bu_firings : int;
  bu_strata : int;
  bu_facts : int;
  bu_index_probes : int;
  bu_full_scans : int;
  bu_candidates : int;
  bu_membership_tests : int;
  bu_spatial_probes : int;
  bu_spatial_scans : int;
  bu_hcons_hits : int;
  bu_hcons_misses : int;
  bu_prov : prov_stats;
  bu_strata_stats : stratum_stats list;
  bu_incr : incr_stats;
}

(* The fixpoint's counters, each declared once: a counter is its index
   into the fixpoint's [ctr] array. [run] and the incremental maintenance
   entry points ({!apply}) share them, so {!stats} is cumulative over the
   fixpoint's whole life — exactly what `--stats` after an update script
   should report. The indices run in the order the snapshot header
   carries the counters, which is every counter before [persisted]; a
   counter in [gauges] is sampled under its name at the end of every
   [run], [import] and {!apply} batch. A new counter is one line here (a
   second in [gauges] if it has one) plus its field in the public
   records; one before [persisted] changes the snapshot format. The
   indices are literals and the table is static data, so the hot path
   bumps a constant slot and nothing is allocated at start-up. *)
module Ctr = struct
  (* the engine's *)
  let facts = 0 (* stored now: inserts - deletes *)
  let passes = 1
  let firings = 2
  let probes = 3
  let scans = 4
  let members = 5
  let sprobes = 6
  let sscans = 7 (* guarded joins that fell back to a scan *)
  let hits = 8
  let misses = 9

  (* proof reconstruction's *)
  let reconstructs = 10
  let max_depth = 11
  let max_size = 12

  (* incremental maintenance's *)
  let batches = 13
  let asserts = 14
  let retracts = 15
  let noops = 16
  let inserted = 17
  let deleted = 18
  let overdeleted = 19
  let rederived = 20
  let visited = 21
  let recomputed = 22 (* retired: moves no more, keeps its header slot *)
  let persisted = 23

  (* facts handed to a positive literal's match: this process's joins
     only, as a snapshot does not carry it *)
  let candidates = 23
  let count = 24

  let gauges =
    [
      (facts, "bu.facts");
      (passes, "bu.passes");
      (firings, "bu.firings");
      (probes, "bu.index_probes");
      (scans, "bu.full_scans");
      (sprobes, "bu.spatial.probes");
      (sscans, "bu.spatial.scans");
      (hits, "bu.hcons_hits");
      (misses, "bu.hcons_misses");
      (batches, "bu.incr.batches");
      (inserted, "bu.incr.inserted");
      (deleted, "bu.incr.deleted");
      (overdeleted, "bu.incr.overdeleted");
      (rederived, "bu.incr.rederived");
    ]

  let fresh () = Array.make count 0
end

let[@inline] bump_by c i n = Array.unsafe_set c i (Array.unsafe_get c i + n)
let[@inline] bump c i = bump_by c i 1

(* ------------------------------------------------------------------ *)
(* join plans compiled against the bank                                *)

(* A rule atom compiled once: its ground subterms are interned ids, its
   variables are slots of the firing's int environment (-1 while
   unbound), and the rest is a functor over compiled arguments. *)
type pat = Ground of int | Slot of int * Term.t | Node of int * pat array

(* Whether fact [id] matches [p], binding every slot it meets unbound. *)
let rec matches b env p id =
  match p with
  | Ground c -> c = id
  | Slot (s, _) ->
      let v = Array.unsafe_get env s in
      if v < 0 then begin
        env.(s) <- id;
        true
      end
      else v = id
  | Node (f, ps) ->
      Bank.tag b id = Bank.t_app
      && Bank.payload b id = f
      && Bank.arity b id = Array.length ps
      && matches_kids b env ps id 0

and matches_kids b env ps id j =
  j = Array.length ps
  || matches b env ps.(j) (Bank.child b id j)
     && matches_kids b env ps id (j + 1)

(* The id of [p]'s instance, every slot in it bound: interned when
   [insert] is set, else -1 when the bank lacks it — then no stored fact
   equals it. *)
let rec inst b env insert p =
  match p with
  | Ground c -> c
  | Slot (s, _) -> env.(s)
  | Node (f, ps) ->
      let base = b.Bank.sp in
      if inst_kids b env insert ps 0 then Bank.app b f (Array.length ps) insert
      else begin
        b.Bank.sp <- base;
        -1
      end

and inst_kids b env insert ps j =
  j = Array.length ps
  ||
  let c = inst b env insert ps.(j) in
  c >= 0
  && begin
       Bank.push b c;
       inst_kids b env insert ps (j + 1)
     end

(* [p]'s instance as a term, for guards, spatial hooks and proofs; an
   unbound slot stays its variable *)
let rec term_of b env = function
  | Ground c -> Bank.term b c
  | Slot (s, v) -> if env.(s) < 0 then v else Bank.term b env.(s)
  | Node (f, ps) ->
      Term.App (Bank.name b f, Array.to_list (Array.map (term_of b env) ps))

let rec pat_slots acc = function
  | Ground _ -> acc
  | Slot (s, _) -> s :: acc
  | Node (_, ps) -> Array.fold_left pat_slots acc ps

let rec pat_at p path =
  match (p, path) with
  | _, [] -> p
  | Node (_, ps), j :: rest -> pat_at ps.(j) rest
  | _ -> invalid_arg "Bottom_up.pat_at"

type csprobe = Cs_within of Sx.box | Cs_near of pat * float

(* A positive literal with its access path decided at compile time: the
   bound slots at each plan position are known statically, so whether
   the instance is ground (a membership test), which of its subterms
   are ground (the probe key) and which slots it binds are too. *)
type cpos = {
  pos : int;  (* join position *)
  rel : Rel.t;
  r : Relation.t;
  pat : pat;
  fresh : int array;  (* the slots it binds *)
  ground : bool;
  key : (int list * pat) option;  (* the probe key's path and pattern *)
  sprobe : (int * csprobe) option;
}

type clit =
  | C_pos of cpos
  | C_neg of pat
  | C_cmp of string * pat * pat
  | C_eq of bool * pat * pat
  | C_is of pat * pat * int array  (* result, expression, fresh slots *)
  | C_ext of pat * int array
  | C_never

(* a body literal of a firing as a proof premise: a positive literal, or
   a [Naf] (true) or [Builtin] (false) leaf over its goal *)
type premise = Prem_pos of Rel.t * pat | Prem_leaf of bool * pat

(* A rule with its join plans compiled: one full-relation plan, one
   delta-aimed plan per positive body position and then one per negated
   literal (read as a positive join against a delta of its relation:
   the firings a change below blocks or unblocks), and one plan for
   evaluation from a matched head (DRed's keep check, its rederivation
   and proofs), ordered from the head's variables. *)
type planned = {
  rule : rule;
  slots : int;
  head : pat;
  head_r : Relation.t;
  plan : clit list;
  delta_plans : clit list array;
  from_head : clit list;
  premises : premise list;  (* textual order *)
}

(* [f k rel] for each negated literal of [r] in textual order: [rel] is
   its relation, [k] its slot in [delta_plans], after the positive
   positions *)
let iter_negated f r =
  ignore
    (List.fold_left
       (fun k -> function Neg (rel, _, _) -> f k rel; k + 1 | _ -> k)
       (Array.length r.pos_rels) r.body
      : int)

(* The maintained state: everything [run] needed transiently is kept so
   {!apply} can continue evaluating — the node bank, the per-stratum
   rule plans, the stratum map, the set of asserted (extensional) facts
   distinguished from derived ones, and the baseline the fixpoint was
   built under (updates must propagate in it or the differential
   guarantees vanish). *)
type fixpoint = {
  bank : Bank.t;
  rels : (Rel.t, Relation.t) Hashtbl.t;
  refine : refine;
  base : bool Itbl.t;  (* the asserted facts *)
  by_stratum : planned list array;
  stratum_of : Rel.t -> int;  (* total: unknown relations map to 0 *)
  n_strata : int;
  baseline : baseline option;  (* [None]: the production evaluation *)
  spatial : spatial option;  (* compiler-supplied spatial builtin hooks *)
  tracer : Gdp_obs.Tracer.t;
  ctr : int array;  (* indexed by {!Ctr} *)
  mutable strata_stats : stratum_stats list;
  mutable clock : int;  (* the rank the next stored fact gets *)
  mutable batch_from : int;
      (* the clock when the current update batch began: a fact ranked at
         or above it entered the store during the batch *)
  mutable budget_from : int;
      (* the pass counter when the current operation (the initial run or
         one update batch) began: the pass bound is per operation, not
         cumulative over the fixpoint's life *)
}

let no_rel = { Rel.name = ""; arity = 0; sub = None }

let record rel t m =
  Rel_map.update rel (function None -> Some [ t ] | Some l -> Some (t :: l)) m

let get_in rels rel =
  match Hashtbl.find_opt rels rel with
  | Some r -> r
  | None ->
      let r = Relation.create () in
      Hashtbl.add rels rel r;
      r

let get fp rel = get_in fp.rels rel

(* dedup-inserting fact [id] into [r], ranked by the insertion clock;
   [true] when it is new. A hit is an add its relation already stores,
   a miss one that stores a new fact. *)
let add fp r id =
  if Relation.add r fp.bank id fp.clock then begin
    bump fp.ctr Ctr.misses;
    fp.clock <- fp.clock + 1;
    bump fp.ctr Ctr.facts;
    if fp.ctr.(Ctr.facts) > max_facts then
      raise (Bound_exceeded (`Facts, max_facts));
    true
  end
  else begin
    bump fp.ctr Ctr.hits;
    false
  end

let tick fp =
  bump fp.ctr Ctr.passes;
  if fp.ctr.(Ctr.passes) - fp.budget_from > max_iterations then
    raise (Bound_exceeded (`Passes, max_iterations))

(* a fact's point at argument [apos], for the spatial indexes *)
let point_at fp sp apos id =
  let a = Bank.at fp.bank id [ apos ] in
  if a < 0 then None else sp.sp_point (Bank.term fp.bank a)

(* The spatial index of [r] over argument [apos]. The first caller that
   needs it builds it, under its own trace span; a pass that derives
   new facts then maintains it incrementally through [Relation.add]. *)
let spatial_index fp sp rel (r : Relation.t) apos =
  match List.assoc_opt apos r.spatials with
  | Some s -> s
  | None ->
      Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
        ~args:
          [
            ("rel", Gdp_obs.Tracer.Str (Rel.to_string rel));
            ("arg", Gdp_obs.Tracer.Int apos);
            ("entries", Gdp_obs.Tracer.Int (Relation.cardinal r));
          ]
        "bu.spatial.build"
        (fun () -> Relation.build_spatial r ~point:(point_at fp sp apos) apos)

(* One rule-body evaluation in progress: the firing's environment and
   everything its literals read. The evaluation is a set of top-level
   recursive functions over it, so trying a candidate fact allocates
   nothing. *)
type firing = {
  fp : fixpoint;
  b : Bank.t;
  env : int array;
  delta_at : int option;
  delta : int list;
  ghosts : int list Rel_map.t option;
  p : planned;
  emit : planned -> int -> int array -> unit;
}

let clear env fresh =
  for j = 0 to Array.length fresh - 1 do
    Array.unsafe_set env (Array.unsafe_get fresh j) (-1)
  done

(* the query box of an annotated join, covering everything the
   downstream spatial guard can accept; [None] under the [Spatial_scan]
   baseline or when the anchor carries no point *)
let query_box x sp probe =
  match (x.fp.baseline, probe) with
  | Some Spatial_scan, _ -> None
  | _, Cs_within bx -> Some bx
  | _, Cs_near (anchor, eps) ->
      Option.map
        (fun (px, py) -> Sx.pad (Sx.point_box px py) eps)
        (sp.sp_point (term_of x.b x.env anchor))

let rec go x lits =
  let b = x.b and env = x.env and ctr = x.fp.ctr in
  match lits with
  | [] -> x.emit x.p (inst b env true x.p.head) env
  | C_pos c :: rest -> (
      match x.delta_at with
      | Some j when j = c.pos ->
          if c.ground then begin
            bump ctr Ctr.members;
            let g = inst b env false c.pat in
            if g >= 0 && List.memq g x.delta then go x rest
          end
          else try_facts x c rest x.delta
      | _ ->
          let gfacts =
            match x.ghosts with
            | None -> []
            | Some g -> Option.value ~default:[] (Rel_map.find_opt c.rel g)
          in
          if c.ground then begin
            bump ctr Ctr.members;
            let g = inst b env false c.pat in
            if g >= 0 && (Bank.stored b g || List.memq g gfacts) then go x rest
          end
          else begin
            (match c.sprobe with
            | None -> hash_join x c rest
            | Some (apos, probe) -> (
                (* annotated joins exist only when the hooks do *)
                let sp = Option.get x.fp.spatial in
                match query_box x sp probe with
                | Some qbox ->
                    bump ctr Ctr.sprobes;
                    (* the candidates: everything indexed inside the box
                       plus the side list of facts without an extractable
                       point, a superset of the facts that can satisfy the
                       guard the planner proved the box covers *)
                    let s = spatial_index x.fp sp c.rel c.r apos in
                    try_facts x c rest (Sx.range s.s_idx qbox);
                    try_facts x c rest s.s_rest
                | None ->
                    bump ctr Ctr.sscans;
                    hash_join x c rest));
            try_facts x c rest gfacts
          end)
  | C_ext (atom, fresh) :: rest -> (
      match x.fp.spatial with
      | None -> ()
      | Some sp ->
          clear env fresh;
          List.iter
            (fun sol ->
              let id = Bank.intern b sol in
              clear env fresh;
              if matches b env atom id then go x rest)
            (sp.sp_solve (term_of b env atom)))
  | C_neg atom :: rest ->
      let g = inst b env false atom in
      if
        g < 0
        || (not (Bank.stored b g))
        || (Option.is_some x.ghosts && Bank.rank b g >= x.fp.batch_from)
      then go x rest
  | C_cmp (op, l, r) :: rest -> (
      match
        ( Arith.eval Subst.empty (term_of b env l),
          Arith.eval Subst.empty (term_of b env r) )
      with
      | exception Arith.Error _ -> ()
      | l, r ->
          let c = Arith.compare_num l r in
          let ok =
            match op with
            | "<" -> c < 0
            | ">" -> c > 0
            | "=<" -> c <= 0
            | ">=" -> c >= 0
            | "=:=" -> c = 0
            | _ -> c <> 0
          in
          if ok then go x rest)
  | C_eq (want_eq, l, r) :: rest ->
      if inst b env true l = inst b env true r = want_eq then go x rest
  | C_is (l, e, fresh) :: rest -> (
      match Arith.eval Subst.empty (term_of b env e) with
      | exception Arith.Error _ -> ()
      | n ->
          let id = Bank.intern b (Arith.to_term n) in
          clear env fresh;
          if matches b env l id then go x rest)
  | C_never :: _ -> ()

(* each fact of a candidate list, in list order, that matches [c] *)
and try_facts x c rest = function
  | [] -> ()
  | id :: more ->
      bump x.fp.ctr Ctr.candidates;
      clear x.env c.fresh;
      if matches x.b x.env c.pat id then go x rest;
      try_facts x c rest more

(* hash access path: probe the index on the literal's key subterm
   (chosen by [compile_rule]), so a join variable bound inside a list
   argument or a constant object narrows the bucket; unification checks
   the other ground subterms. Every bucket is the relation's reverse
   insertion order filtered by its key, so the enumeration of matching
   facts does not depend on the path. Scan when no top-level argument
   is ground: a bucket would then come back in the reverse of the
   scan's order. *)
and hash_join x c rest =
  let ctr = x.fp.ctr in
  match c.key with
  | Some (path, k) ->
      bump ctr Ctr.probes;
      try_facts x c rest (Relation.bucket c.r x.b path (inst x.b x.env false k))
  | None ->
      bump ctr Ctr.scans;
      (* facts added while the scan runs are not visited *)
      let r = c.r in
      bump_by ctr Ctr.candidates r.n;
      for i = 0 to r.n - 1 do
        let id = Array.unsafe_get r.ids i in
        clear x.env c.fresh;
        if matches x.b x.env c.pat id then go x rest
      done

(* evaluate one rule body along its plan; [delta_at] aims one positive
   join position at the previous pass's delta instead of the full
   relation. Each positive literal is matched by the cheapest available
   access path: O(1) membership when the bound slots ground it, an
   index probe on its ground subterms ([hash_join]), and a full scan
   only when no top-level argument is ground (or under the [Scan]
   baseline).

   [ghosts], used only by DRed over-deletion, extends every positive
   literal's relation with the facts physically deleted earlier in the
   same update batch: over-deletion must evaluate against (a superset
   of) the pre-deletion state, and the union of the current store with
   the batch's ghosts is exactly that superset; a negated literal there
   holds over a fact the batch added, too. [env], used only to
   evaluate from a matched head, starts the body evaluation from
   bindings that already ground the head.

   [emit] receives each firing's rule, derived head and environment. *)
let eval_rule fp ?ghosts ?env ~delta_at ~delta p plan ~emit =
  bump fp.ctr Ctr.firings;
  let env = match env with Some e -> e | None -> Array.make p.slots (-1) in
  go { fp; b = fp.bank; env; delta_at; delta; ghosts; p; emit } plan

(* The first firing, in rule order and along each rule's head-bound
   plan, of a rule of [srules] that derives the stored fact [id] of
   relation [rel] from the current store and that [accept] takes, as the
   rule and the firing's environment. DRed rederivation accepts every
   firing; DRed's keep check and {!proof} accept {!below} firings only. *)
exception Derived of planned * int array

let find_derivation fp srules rel id ~accept =
  try
    List.iter
      (fun p ->
        if Rel.compare p.rule.head_rel rel = 0 then begin
          let env = Array.make p.slots (-1) in
          if matches fp.bank env p.head id then
            eval_rule fp ~env ~delta_at:None ~delta:[] p p.from_head
              ~emit:(fun p _ env ->
                (* the head is [id]: the matched slots ground it *)
                if accept p env then
                  raise_notrace (Derived (p, Array.copy env)))
        end)
      srules;
    None
  with Derived (p, env) -> Some (p, env)

(* Whether the firing [env] of [p], deriving a fact of rank [k] in
   stratum [s], is well-founded: each positive premise lies in a lower
   stratum, or ranks below [k] and is not [gone]. Such a firing is what
   {!proof} rebuilds and what DRed keeps a candidate by. *)
let below fp s k ~gone p env =
  List.for_all
    (function
      | Prem_pos (rel, atom) ->
          fp.stratum_of rel < s
          ||
          let u = inst fp.bank env false atom in
          Bank.rank fp.bank u < k && not (gone u)
      | Prem_leaf _ -> true)
    p.premises

(* Saturate one stratum. [`Full] starts with a pass firing every rule
   against the full relations (the initial run); [`Deltas m] starts
   semi-naive propagation from facts already stored (incremental
   insertion) and stops as soon as no rule of the stratum reads a delta
   relation — maintenance skips the trailing empty pass the initial run
   deliberately keeps (its pass counts are pinned by the cram tests).
   Returns every fact this call added, per relation, and the largest
   delta carried. *)
let saturate fp srules start =
  let added = ref Rel_map.empty in
  (* a pass's new facts gather in their relations, newest first, and
     become the next pass's delta map once the pass is over *)
  let touched = ref [] in
  let emit p id _ =
    let r = p.head_r in
    if add fp r id then begin
      if r.Relation.pass_new = [] then touched := (p.rule.head_rel, r) :: !touched;
      r.pass_new <- id :: r.pass_new
    end
  in
  let new_facts = ref Rel_map.empty in
  let end_pass () =
    new_facts :=
      List.fold_left
        (fun m (rel, (r : Relation.t)) ->
          let l = r.pass_new in
          r.pass_new <- [];
          added :=
            Rel_map.update rel
              (function None -> Some l | Some old -> Some (l @ old))
              !added;
          Rel_map.add rel l m)
        Rel_map.empty !touched;
    touched := []
  in
  let full_pass () =
    List.iter
      (fun p -> eval_rule fp ~delta_at:None ~delta:[] p p.plan ~emit)
      srules
  in
  let max_delta = ref 0 in
  let guard =
    match start with
    | `Full ->
        tick fp;
        Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
          ~args:[ ("kind", Gdp_obs.Tracer.Str "full") ]
          "pass" full_pass;
        end_pass ();
        false
    | `Deltas m ->
        new_facts := m;
        true
  in
  let reads m =
    List.exists
      (fun p -> Array.exists (fun rel -> Rel_map.mem rel m) p.rule.pos_rels)
      srules
  in
  let deltas = ref !new_facts in
  while (not (Rel_map.is_empty !deltas)) && ((not guard) || reads !deltas) do
    tick fp;
    let dsize = Rel_map.fold (fun _ l acc -> acc + List.length l) !deltas 0 in
    if dsize > !max_delta then max_delta := dsize;
    Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
      ~args:[ ("delta", Gdp_obs.Tracer.Int dsize) ]
      "pass"
      (fun () ->
        if fp.baseline = Some Naive then full_pass ()
        else
          List.iter
            (fun p ->
              Array.iteri
                (fun i rel ->
                  match Rel_map.find_opt rel !deltas with
                  | Some (_ :: _ as d) ->
                      eval_rule fp ~delta_at:(Some i) ~delta:d p
                        p.delta_plans.(i) ~emit
                  | _ -> ())
                p.rule.pos_rels)
            srules);
    end_pass ();
    deltas := !new_facts
  done;
  (!added, !max_delta)

(* Compile one rule's plans against the bank: the rule's variables
   become slots numbered by first appearance, and each plan position
   learns which slots are bound there — from nothing for the fixpoint's
   own passes, from the head's for evaluation from a matched head. The
   bound set grows along a plan exactly as {!Datalog.extend_bound} has
   it. *)
let compile_rule bank get ~scan ~annotate (r : rule) =
  let slots = Hashtbl.create 8 in
  let rec pat (t : Term.t) =
    match t with
    | Var v ->
        let s =
          match Hashtbl.find_opt slots v.id with
          | Some s -> s
          | None ->
              let s = Hashtbl.length slots in
              Hashtbl.add slots v.id s;
              s
        in
        Slot (s, t)
    | App (f, args) when not (Term.is_ground t) ->
        Node (Bank.sym bank f, Array.of_list (List.map pat args))
    | _ -> Ground (Bank.intern bank t)
  in
  (* The probe key of [atom], compiled to [p], once the slots in [bound]
     are bound, with the subpattern there: its first maximal ground
     subterm that holds a bound variable; else its first ground
     top-level argument that is not {!Path_key.shared} (the object list
     of [depth(D)(ocean)]); else its first ground top-level argument.
     [None] (a scan) when no top-level argument is ground. A constant
     nested deeper (the [n0] of [reach(n0, X)]) is no key here: it would
     build a second index over the relation for one probe per firing. *)
  let key_of bound atom p =
    let bound (v : Term.var) = Iset.mem (Hashtbl.find slots v.id) bound in
    let paths = Path_key.ground_paths ~bound atom in
    let sub path = Option.get (Path_key.subterm_at path atom) in
    let top = List.filter (function [ _ ] -> true | _ -> false) paths in
    if top = [] then None
    else
      List.find_map
        (fun (ok, among) -> List.find_opt ok among)
        [
          ((fun path -> not (Term.is_ground (sub path))), paths);
          ((fun path -> not (Path_key.shared path (sub path))), top);
          ((fun _ -> true), top);
        ]
      |> Option.map (fun path -> (path, pat_at p path))
  in
  let plan_of ?avoid ?(body = r.body) bound delta_at =
    annotate bound
      (if scan then body else order_body ?avoid ~bound ~delta_at body)
  in
  let compile bound lits =
    let bound = ref bound in
    let binding p =
      let fresh =
        List.sort_uniq Int.compare
          (List.filter (fun s -> not (Iset.mem s !bound)) (pat_slots [] p))
      in
      bound := List.fold_left (fun s x -> Iset.add x s) !bound fresh;
      Array.of_list fresh
    in
    List.map
      (function
        | Pos (pos, rel, atom, sprobe) ->
            let p = pat atom in
            let before = !bound in
            let fresh = binding p in
            let ground = fresh = [||] in
            let key = if ground || scan then None else key_of before atom p in
            let sprobe =
              Option.map
                (fun (apos, sp) ->
                  ( apos,
                    match sp with
                    | Sp_within bx -> Cs_within bx
                    | Sp_near (anchor, eps) -> Cs_near (pat anchor, eps) ))
                sprobe
            in
            C_pos
              {
                pos;
                rel;
                r = get rel;
                pat = p;
                fresh;
                ground;
                key;
                sprobe;
              }
        | Neg (_, atom, _) -> C_neg (pat atom)
        | Cmp (op, x, y) -> C_cmp (op, pat x, pat y)
        | Eq (want_eq, x, y) -> C_eq (want_eq, pat x, pat y)
        | Is (l, e) ->
            let l = pat l and e = pat e in
            C_is (l, e, binding l)
        | Ext (_, atom) ->
            let p = pat atom in
            C_ext (p, binding p)
        | Never -> C_never)
      lits
  in
  let head = pat r.head in
  let n_pos = Array.length r.pos_rels in
  (* the body with the negated literal of slot [k] (numbered as
     {!iter_negated} has it) read as a positive join at position [k] *)
  let negated_at k =
    snd
      (List.fold_left_map
         (fun i lit ->
           match lit with
           | Neg (rel, atom, _) ->
               (i + 1, if i = k then Pos (k, rel, atom, None) else lit)
           | _ -> (i, lit))
         n_pos r.body)
  in
  let n_slots =
    List.fold_left (fun n -> function Neg _ -> n + 1 | _ -> n) n_pos r.body
  in
  let plan = plan_of Iset.empty None
  and delta_plans =
    Array.init n_slots (fun i ->
        if i < n_pos then plan_of Iset.empty (Some i)
        else plan_of ~body:(negated_at i) Iset.empty (Some i))
  and head_plan = plan_of ~avoid:r.head_rel (vset r.head) None in
  let premises =
    List.filter_map
      (function
        | Pos (_, rel, atom, _) -> Some (Prem_pos (rel, pat atom))
        | Neg (_, atom, _) -> Some (Prem_leaf (true, pat atom))
        | Never -> None
        | lit -> Some (Prem_leaf (false, pat (goal_of lit))))
      r.body
  in
  let c_plan = compile Iset.empty plan
  and c_delta = Array.map (compile Iset.empty) delta_plans
  and h_plan = compile (Iset.of_list (pat_slots [] head)) head_plan in
  {
    rule = r;
    slots = Hashtbl.length slots;
    head;
    head_r = get r.head_rel;
    plan = c_plan;
    delta_plans = c_delta;
    from_head = h_plan;
    premises;
  }

(* The option-independent skeleton [run] and [import] share: from the
   classified and stratified database ({!prepare}), the bank and the
   counters to start from, create every relation the rules can touch,
   compile every rule's join plans against the bank and build the
   (still empty) fixpoint record. Returns
   the parsed base facts un-inserted — [run] nets its seeds into them
   and saturates; [import] ignores them and bulk-loads a snapshot
   instead. *)
let build_fixpoint ~baseline ~spatial ~refine ~tracer ~bank ~ctr
    (facts, rules, stratum_of, n_strata) =
  let rels = Hashtbl.create 64 in
  (* every relation a rule can read or write exists up front, so the set
     of stored relations — and with it a snapshot's relation list —
     depends only on the rules, never on which ones evaluation touched *)
  List.iter
    (fun r ->
      ignore (get_in rels r.head_rel : Relation.t);
      Array.iter (fun rel -> ignore (get_in rels rel : Relation.t)) r.pos_rels;
      List.iter
        (function
          | Neg (rel, _, _) -> ignore (get_in rels rel : Relation.t) | _ -> ())
        r.body)
    rules;
  (* body plans: a greedy bound-count order per rule plus one per delta
     position; the [Scan] baseline keeps textual order. With spatial
     hooks present, every plan gets the spatial annotation pass — whether
     an annotated join actually probes is decided at evaluation time, so
     the [Spatial_scan] baseline counts the joins it declined to
     accelerate. *)
  let annotate bound plan =
    match spatial with Some sp -> annotate_spatial sp bound plan | None -> plan
  in
  let planned =
    List.map
      (compile_rule bank (get_in rels) ~scan:(baseline = Some Scan) ~annotate)
      rules
  in
  let by_stratum = Array.make (max n_strata 1) [] in
  List.iter
    (fun p ->
      let s = stratum_of p.rule.head_rel in
      by_stratum.(s) <- p :: by_stratum.(s))
    planned;
  Array.iteri (fun i rs -> by_stratum.(i) <- List.rev rs) by_stratum;
  let fp =
    {
      bank;
      rels;
      refine;
      base = Itbl.create 64 false;
      by_stratum;
      stratum_of =
        (fun rel -> match stratum_of rel with s -> s | exception Not_found -> 0);
      n_strata;
      baseline;
      spatial;
      tracer;
      ctr;
      strata_stats = [];
      clock = 0;
      batch_from = 0;
      budget_from = 0;
    }
  in
  (fp, facts)

(* Build every spatial index the annotated plans will probe before the
   first pass, each under its own trace span, rather than inside the
   first pass that probes it. A negated literal's delta plan runs only
   in maintenance, so its indexes are left to the first probe. *)
let prebuild_spatial fp =
  match fp.spatial with
  | Some sp when fp.baseline <> Some Spatial_scan ->
      let build_for = function
        | C_pos { rel; r; sprobe = Some (apos, _); _ } ->
            ignore (spatial_index fp sp rel r apos : Relation.spat)
        | _ -> ()
      in
      Array.iter
        (List.iter (fun p ->
             List.iter build_for p.plan;
             Array.iteri
               (fun i plan ->
                 if i < Array.length p.rule.pos_rels then
                   List.iter build_for plan)
               p.delta_plans))
        fp.by_stratum
  | _ -> ()

(* the lineage's size: the rank column *)
let rank_bytes fp = 8 * fp.ctr.(Ctr.facts)

(* Sample every counter that has a gauge name, and the lineage size, into
   an enabled tracer: at the end of [run], of [import] and of each
   {!apply} batch. *)
let gauge fp =
  let tracer = fp.tracer in
  if Gdp_obs.Tracer.enabled tracer then begin
    let set n v = Gdp_obs.Tracer.set tracer n (float_of_int v) in
    List.iter (fun (i, name) -> set name fp.ctr.(i)) Ctr.gauges;
    set "prov.bytes" (rank_bytes fp)
  end

let run ?baseline ?spatial ?(refine = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) ?(seed = []) db =
  let fp, facts =
    build_fixpoint ~baseline ~spatial ~refine ~tracer
      ~bank:(Bank.create ~nodes:1024) ~ctr:(Ctr.fresh ())
      (prepare db ~refine ~spatial)
  in
  let b = fp.bank in
  (* net the seeds like {!apply} nets a batch: a seed structurally equal
     to a parsed fact, or repeated in the seed list, lands in the store
     (and the counters) exactly once *)
  let facts = List.map (fun (rel, t) -> (rel, Bank.intern b t)) facts in
  let seen = Itbl.create (List.length facts) false in
  List.iter (fun (_, id) -> Itbl.replace seen id true) facts;
  let facts =
    facts
    @ List.filter_map
        (fun t ->
          if not (Term.is_ground t) then
            unsupported "seed: non-ground seed fact %s" (Term.to_string t);
          let id = Bank.intern b t in
          if Itbl.add seen id true then Some (rel_of ~refine ~what:"seed" t, id)
          else None)
        seed
  in
  List.iter
    (fun (rel, id) ->
      ignore (add fp (get fp rel) id : bool);
      Itbl.replace fp.base id true)
    facts;
  prebuild_spatial fp;
  let stratum_acc = ref [] in
  let run_frame =
    Gdp_obs.Tracer.begin_span tracer ~cat:"fixpoint" "bottom_up.run"
  in
  Array.iteri
    (fun si srules ->
      if srules <> [] then begin
        let passes0 = fp.ctr.(Ctr.passes)
        and firings0 = fp.ctr.(Ctr.firings)
        and total0 = fp.ctr.(Ctr.facts) in
        let s_frame =
          Gdp_obs.Tracer.begin_span tracer ~cat:"fixpoint"
            ~args:[ ("rules", Gdp_obs.Tracer.Int (List.length srules)) ]
            ("stratum " ^ string_of_int si)
        in
        let _, max_delta = saturate fp srules `Full in
        let derived = fp.ctr.(Ctr.facts) - total0 in
        Gdp_obs.Tracer.end_span tracer s_frame
          ~args:
            [
              ("passes", Gdp_obs.Tracer.Int (fp.ctr.(Ctr.passes) - passes0));
              ("derived", Gdp_obs.Tracer.Int derived);
            ];
        stratum_acc :=
          {
            st_stratum = si;
            st_rules = List.length srules;
            st_passes = fp.ctr.(Ctr.passes) - passes0;
            st_firings = fp.ctr.(Ctr.firings) - firings0;
            st_derived = derived;
            st_max_delta = max_delta;
          }
          :: !stratum_acc
      end)
    fp.by_stratum;
  Gdp_obs.Tracer.end_span tracer run_frame;
  gauge fp;
  fp.strata_stats <- List.rev !stratum_acc;
  fp

(* ------------------------------------------------------------------ *)

let facts fp =
  Hashtbl.fold (fun _ r acc -> Relation.elements fp.bank r @ acc) fp.rels []
  |> List.sort Term.compare

(* The stored relations a goal can match: its own relation when it
   resolves to one, else — a refined predicate queried with a variable
   at the refining argument — every refined relation of its predicate. *)
let relations_of fp goal =
  match resolve_rel fp.refine goal with
  | Ok rel -> Option.to_list (Hashtbl.find_opt fp.rels rel)
  | Error `Not_atom -> []
  | Error (`Unrefined (name, arity, _)) ->
      Hashtbl.fold
        (fun (r : Rel.t) rel acc ->
          if String.equal r.Rel.name name && r.Rel.arity = arity then rel :: acc
          else acc)
        fp.rels []

let holds fp t =
  let id = Bank.lookup fp.bank t in
  id >= 0 && Bank.stored fp.bank id

(* Candidates for a goal by the cheapest access path: membership for a
   ground goal, an index probe on one ground subterm for a half-bound
   goal ({!Path_key.key_path}: for a [holds/6] goal, an object or the
   object list rather than the model or predicate every fact of the
   relation shares; {!Relation.lookup}: a scan the first time a path
   without an index is probed), the whole relation otherwise. The
   result is a superset of the facts unifiable with [goal] (the facts
   agreeing with it at the key) and is unsorted. *)
let probe fp goal =
  let b = fp.bank in
  if Term.is_ground goal then if holds fp goal then [ goal ] else []
  else
    let candidates =
      match Path_key.key_path goal with
      | None -> Relation.elements b
      | Some path ->
          let k = Bank.lookup b (Option.get (Path_key.subterm_at path goal)) in
          fun r -> List.map (Bank.term b) (Relation.lookup r b path k)
    in
    match relations_of fp goal with
    | [ r ] -> candidates r (* the common case: no copy *)
    | rs -> List.concat_map candidates rs

let count fp =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) fp.rels 0

let stats fp =
  let c = fp.ctr in
  {
    bu_passes = c.(Ctr.passes);
    bu_firings = c.(Ctr.firings);
    bu_strata = fp.n_strata;
    bu_facts = c.(Ctr.facts);
    bu_index_probes = c.(Ctr.probes);
    bu_full_scans = c.(Ctr.scans);
    bu_candidates = c.(Ctr.candidates);
    bu_membership_tests = c.(Ctr.members);
    bu_spatial_probes = c.(Ctr.sprobes);
    bu_spatial_scans = c.(Ctr.sscans);
    bu_hcons_hits = c.(Ctr.hits);
    bu_hcons_misses = c.(Ctr.misses);
    bu_strata_stats = fp.strata_stats;
    bu_incr =
      {
        upd_batches = c.(Ctr.batches);
        upd_asserts = c.(Ctr.asserts);
        upd_retracts = c.(Ctr.retracts);
        upd_noops = c.(Ctr.noops);
        upd_inserted = c.(Ctr.inserted);
        upd_deleted = c.(Ctr.deleted);
        upd_overdeleted = c.(Ctr.overdeleted);
        upd_rederived = c.(Ctr.rederived);
        upd_strata_visited = c.(Ctr.visited);
        upd_strata_recomputed = c.(Ctr.recomputed);
      };
    bu_prov =
      {
        prov_bytes = rank_bytes fp;
        prov_reconstructs = c.(Ctr.reconstructs);
        prov_max_depth = c.(Ctr.max_depth);
        prov_max_size = c.(Ctr.max_size);
      };
  }

let incr_stats fp = (stats fp).bu_incr

let hcons_hit_rate s =
  let n = s.bu_hcons_hits + s.bu_hcons_misses in
  if n = 0 then 0.0 else float_of_int s.bu_hcons_hits /. float_of_int n

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>passes: %d  firings: %d  strata: %d  facts: %d@,\
     index probes: %d  full scans: %d  membership tests: %d@,\
     hcons: %d hits / %d misses (%.1f%% hit rate)@,"
    s.bu_passes s.bu_firings s.bu_strata s.bu_facts s.bu_index_probes
    s.bu_full_scans s.bu_membership_tests s.bu_hcons_hits s.bu_hcons_misses
    (100.0 *. hcons_hit_rate s);
  if s.bu_spatial_probes > 0 || s.bu_spatial_scans > 0 then
    Format.fprintf ppf "spatial: %d probes, %d scans@," s.bu_spatial_probes
      s.bu_spatial_scans;
  List.iter
    (fun st ->
      Format.fprintf ppf
        "stratum %d: %d rules, %d passes, %d firings, %d derived, max delta \
         %d@,"
        st.st_stratum st.st_rules st.st_passes st.st_firings st.st_derived
        st.st_max_delta)
    s.bu_strata_stats;
  if s.bu_incr.upd_batches > 0 then begin
    let i = s.bu_incr in
    Format.fprintf ppf
      "updates: %d batches (%d asserts, %d retracts, %d no-ops)@,\
       maintenance: %d inserted, %d deleted, %d over-deleted, %d rederived@,\
       maintenance strata: %d visited@,"
      i.upd_batches i.upd_asserts i.upd_retracts i.upd_noops i.upd_inserted
      i.upd_deleted i.upd_overdeleted i.upd_rederived i.upd_strata_visited
  end;
  let p = s.bu_prov in
  Format.fprintf ppf "provenance: %d rank bytes@," p.prov_bytes;
  if p.prov_reconstructs > 0 then
    Format.fprintf ppf
      "provenance: %d reconstructs (max depth %d, max size %d)@,"
      p.prov_reconstructs p.prov_max_depth p.prov_max_size;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* incremental maintenance: semi-naive insertion deltas + DRed
   (delete-and-rederive) deletions, per stratum in dependency order; a
   changed negated relation is a delta on its negated literals          *)

type update = [ `Assert of Term.t | `Retract of Term.t ]

(* Physically remove those of the [(rel, id)] pairs the store holds;
   each touched relation is compacted once, by {!Relation.remove}.
   Returns the pairs removed, in input order. *)
let remove_facts fp pairs =
  let by_rel = Hashtbl.create 8 in
  List.iter
    (fun (rel, id) ->
      Hashtbl.replace by_rel rel
        (id :: Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
    pairs;
  let gone = Itbl.create 16 false in
  Hashtbl.iter
    (fun rel ids ->
      List.iter
        (fun id -> Itbl.replace gone id true)
        (Relation.remove (get fp rel) fp.bank (List.rev ids)))
    by_rel;
  List.filter
    (fun (_, id) ->
      Itbl.mem gone id
      && begin
           (* a pair listed twice is removed once *)
           Itbl.remove gone id;
           bump_by fp.ctr Ctr.facts (-1);
           true
         end)
    pairs

(* One stratum, incrementally. Precondition: lower strata are already
   final. [seeds_a]/[seeds_d] are the net base assertions/retractions
   landing on this stratum's relations; [lower_adds]/[lower_dels] the
   net changes from lower strata, which a rule reads positively or under
   negation. [lower_dels] is every fact physically deleted so far this
   batch: the ghosts of over-deletion. Returns the stratum's own net
   (additions, deletions). *)
let incremental_stratum fp srules ~seeds_a ~seeds_d ~lower_adds ~lower_dels =
  (* presence at batch start, recorded the first time a fact is touched:
     the final net change is (recorded, current) presence disagreeing *)
  let before = Omap.create (no_rel, false) in
  let note rel id was = Omap.add before id (rel, was) in
  (* 1. asserted base facts go in first: rederivation below must see them *)
  let seed_added =
    List.filter_map
      (fun (rel, t) ->
        if add fp (get fp rel) t then begin
          note rel t false;
          Some (rel, t)
        end
        else None)
      seeds_a
  in
  (* 2. DRed over-deletion, rank-bounded. The candidates are the
     retracted base facts, every stored fact a rule of this stratum
     derives from a deleted fact and every one it derives through a
     negated literal a lower fact now blocks, found by delta evaluation
     against current-store ∪ ghosts (a superset of the pre-deletion
     state: a negated fact this batch added still counts as absent). They
     are decided once each, lowest rank first: a candidate is kept if it
     is still asserted or has a derivation whose same-stratum premises
     rank below it and are unmarked; otherwise it is marked, and the
     facts its deletion feeds become candidates at once. No fact of
     lower rank is marked after a candidate is decided (DESIGN.md §8), so
     a kept fact's premises survive and it keeps its rank. The loop adds
     no fact and decides each stored fact at most once, so it is bounded
     by the store and ticks no pass. [seen] holds every candidate queued
     so far, [true] for a retracted base fact; [queue] the undecided
     ones by rank. *)
  let seen = Itbl.create 16 false and queue = ref Imap.empty in
  let marked = Omap.create no_rel in
  let push ~retracted rel t =
    if Bank.stored fp.bank t && Itbl.add seen t retracted then
      queue := Imap.add (Bank.rank fp.bank t) (rel, t) !queue
  in
  let candidate p h _ = push ~retracted:false p.rule.head_rel h in
  let feed rel ids =
    List.iter
      (fun p ->
        Array.iteri
          (fun i r ->
            if Rel.compare r rel = 0 then
              eval_rule fp ~ghosts:lower_dels ~delta_at:(Some i) ~delta:ids
                p p.delta_plans.(i) ~emit:candidate)
          p.rule.pos_rels)
      srules
  in
  (* the firings of a negated literal whose relation [changes] touches *)
  let negated ?ghosts changes ~emit =
    List.iter
      (fun p ->
        iter_negated
          (fun k rel ->
            match Rel_map.find_opt rel changes with
            | Some (_ :: _ as d) ->
                eval_rule fp ?ghosts ~delta_at:(Some k) ~delta:d p
                  p.delta_plans.(k) ~emit
            | _ -> ())
          p.rule)
      srules
  in
  List.iter (fun (rel, t) -> push ~retracted:true rel t) seeds_d;
  Rel_map.iter feed lower_dels;
  negated ~ghosts:lower_dels lower_adds ~emit:candidate;
  let rec decide () =
    match Imap.min_binding_opt !queue with
    | None -> ()
    | Some (k, (rel, t)) ->
        queue := Imap.remove k !queue;
        if
          (not (Itbl.mem fp.base t))
          && find_derivation fp srules rel t
               ~accept:(below fp (fp.stratum_of rel) k ~gone:(Omap.mem marked))
             = None
        then begin
          Omap.add marked t rel;
          if not (Itbl.find seen t) then
            bump fp.ctr Ctr.overdeleted;
          feed rel [ t ]
        end;
        decide ()
  in
  decide ();
  (* 3. physically remove everything marked *)
  let removed =
    remove_facts fp
      (List.rev (Omap.fold (fun t rel acc -> (rel, t) :: acc) marked []))
  in
  List.iter (fun (rel, t) -> note rel t true) removed;
  (* 4. rederive: a removed fact survives if it is still asserted, or
     some rule of this stratum derives it from the remaining facts.
     Iterated to a fixpoint so chains of mutually supporting facts are
     reinstated in dependency order. A reinstated fact gets a fresh rank,
     above every premise of the derivation found here. *)
  let pending = ref (List.rev removed) and progress = ref true in
  while !progress do
    progress := false;
    pending :=
      List.filter
        (fun (rel, t) ->
          let reinstate () =
            ignore (add fp (get fp rel) t : bool);
            bump fp.ctr Ctr.rederived;
            progress := true;
            false
          in
          if
            Itbl.mem fp.base t
            || find_derivation fp srules rel t ~accept:(fun _ _ -> true)
               <> None
          then reinstate ()
          else true)
        !pending
  done;
  (* 5. the firings a lower deletion unblocks, against the current store
     (rederivation found those of removed facts): their heads go in with
     fresh ranks *)
  let inserted = ref seed_added in
  negated lower_dels ~emit:(fun p h _ ->
      if add fp p.head_r h then begin
        note p.rule.head_rel h false;
        inserted := (p.rule.head_rel, h) :: !inserted
      end);
  (* 6. insertion propagation: semi-naive from the asserted and unblocked
     facts plus the additions lower strata produced (all already stored) *)
  let ins_deltas =
    List.fold_left (fun m (rel, t) -> record rel t m) lower_adds !inserted
  in
  let sat_added =
    if Rel_map.is_empty ins_deltas then Rel_map.empty
    else fst (saturate fp srules (`Deltas ins_deltas))
  in
  Rel_map.iter (fun rel l -> List.iter (fun t -> note rel t false) l) sat_added;
  (* 7. net the batch-start snapshot against the current store *)
  let net_adds = ref [] and net_dels = ref [] in
  Omap.iter
    (fun t (rel, was) ->
      let now = Bank.stored fp.bank t in
      match (was, now) with
      | false, true ->
          bump fp.ctr Ctr.inserted;
          net_adds := (rel, t) :: !net_adds
      | true, false ->
          bump fp.ctr Ctr.deleted;
          net_dels := (rel, t) :: !net_dels
      | _ -> ())
    before;
  (!net_adds, !net_dels)

let apply fp (updates : update list) =
  (* validate the whole batch before touching anything, so a bad entry
     leaves the fixpoint exactly as it was *)
  let entries =
    List.map
      (fun u ->
        let asserted, t =
          match u with `Assert t -> (true, t) | `Retract t -> (false, t)
        in
        if not (Term.is_ground t) then
          unsupported "update: %s is not a ground fact" (Term.to_string t);
        (match Term.functor_of t with
        | None ->
            unsupported "update: %s is not a predicate atom" (Term.to_string t)
        | Some (name, arity) when List.mem (name, arity) library ->
            unsupported "update: %s/%d is a library predicate" name arity
        | Some _ -> ());
        (asserted, t, rel_of ~refine:fp.refine ~what:"update" t))
      updates
    |> List.map (fun (asserted, t, rel) -> (asserted, Bank.intern fp.bank t, rel))
  in
  let c = fp.ctr in
  fp.budget_from <- c.(Ctr.passes);
  fp.batch_from <- fp.clock;
  let ins0 = c.(Ctr.inserted) and del0 = c.(Ctr.deleted) in
  bump c Ctr.batches;
  let frame =
    Gdp_obs.Tracer.begin_span fp.tracer ~cat:"fixpoint"
      ~args:[ ("updates", Gdp_obs.Tracer.Int (List.length updates)) ]
      "bu.incr.apply"
  in
  (* replay the script against the base-fact table: per fact, only the
     net effect matters (assert-then-retract is a no-op), and the seeds
     handed to each stratum are those net changes *)
  let touched = Omap.create (no_rel, false) in
  List.iter
    (fun (asserted, t, rel) ->
      bump c (if asserted then Ctr.asserts else Ctr.retracts);
      Omap.add touched t (rel, Itbl.mem fp.base t);
      if asserted then Itbl.replace fp.base t true else Itbl.remove fp.base t)
    entries;
  let ns = Array.length fp.by_stratum in
  let adds_at = Array.make ns [] and dels_at = Array.make ns [] in
  Omap.iter
    (fun t (rel, was) ->
      let now = Itbl.mem fp.base t in
      let si = min (max 0 (fp.stratum_of rel)) (ns - 1) in
      match (was, now) with
      | false, true -> adds_at.(si) <- (rel, t) :: adds_at.(si)
      | true, false -> dels_at.(si) <- (rel, t) :: dels_at.(si)
      | _ -> bump c Ctr.noops)
    touched;
  (* strata low to high, carrying the accumulated net additions and
     deletions: every stratum's rules may read relations from any lower
     stratum, so the delta maps only ever grow *)
  let add_delta = ref Rel_map.empty and del_delta = ref Rel_map.empty in
  let changed rel = Rel_map.mem rel !add_delta || Rel_map.mem rel !del_delta in
  for si = 0 to ns - 1 do
    let srules = fp.by_stratum.(si) in
    let seeds_a = adds_at.(si) and seeds_d = dels_at.(si) in
    (* the stratum's rules read a changed relation, positively or under
       negation *)
    let reads_deltas =
      List.exists
        (fun p ->
          List.exists
            (function
              | Pos (_, rel, _, _) | Neg (rel, _, _) -> changed rel
              | _ -> false)
            p.rule.body)
        srules
    in
    if seeds_a <> [] || seeds_d <> [] || reads_deltas then begin
      bump c Ctr.visited;
      let s_frame =
        Gdp_obs.Tracer.begin_span fp.tracer ~cat:"fixpoint"
          ("bu.incr.stratum " ^ string_of_int si)
      in
      let net_adds, net_dels =
        incremental_stratum fp srules ~seeds_a ~seeds_d
          ~lower_adds:!add_delta ~lower_dels:!del_delta
      in
      List.iter (fun (rel, t) -> add_delta := record rel t !add_delta) net_adds;
      List.iter (fun (rel, t) -> del_delta := record rel t !del_delta) net_dels;
      Gdp_obs.Tracer.end_span fp.tracer s_frame
        ~args:
          [
            ("added", Gdp_obs.Tracer.Int (List.length net_adds));
            ("deleted", Gdp_obs.Tracer.Int (List.length net_dels));
          ]
    end
  done;
  Gdp_obs.Tracer.end_span fp.tracer frame
    ~args:
      [
        ("inserted", Gdp_obs.Tracer.Int (c.(Ctr.inserted) - ins0));
        ("deleted", Gdp_obs.Tracer.Int (c.(Ctr.deleted) - del0));
      ];
  gauge fp

let asserted fp t =
  Term.is_ground t
  &&
  let id = Bank.lookup fp.bank t in
  id >= 0 && Itbl.mem fp.base id

let assert_fact fp t =
  let was = asserted fp t in
  apply fp [ `Assert t ];
  not was

let retract_fact fp t =
  let was = asserted fp t in
  apply fp [ `Retract t ];
  was

(* ------------------------------------------------------------------ *)
(* why-provenance: ranks and proof reconstruction *)

(* The relation, id and rank of a stored ground atom. *)
let stored fp t =
  match resolve_rel fp.refine t with
  | Error _ -> None
  | Ok rel -> (
      let id = Bank.lookup fp.bank t in
      if id < 0 then None
      else match Bank.rank fp.bank id with -1 -> None | k -> Some (rel, id, k))

let rank fp t =
  Option.map (fun (rel, _, k) -> (fp.stratum_of rel, k)) (stored fp t)

(* Premises recurse on lower ranks or lower strata, so the search
   terminates on any store, even a crafted one. *)
let proof fp t =
  match stored fp t with
  | None -> None
  | Some (rel, id, k) ->
      let frame =
        Gdp_obs.Tracer.begin_span fp.tracer ~cat:"provenance"
          "prov.reconstruct"
      in
      let b = fp.bank in
      (* scratch counters: rebuilding a proof moves no engine counter *)
      let scratch = { fp with ctr = Ctr.fresh () } in
      let memo = Hashtbl.create 16 in
      let rec build rel goal k =
        if Itbl.mem fp.base goal then Explain.Fact (Bank.term b goal)
        else
          match Hashtbl.find_opt memo goal with
          | Some p -> p
          | None ->
              let s = fp.stratum_of rel in
              (* a positive premise's relation, fact and rank *)
              let premise env = function
                | Prem_pos (rel, atom) ->
                    let u = inst b env false atom in
                    if u >= 0 && Bank.stored b u then Some (rel, u, Bank.rank b u)
                    else None
                | Prem_leaf _ -> None
              in
              let node =
                match
                  find_derivation scratch fp.by_stratum.(s) rel goal
                    ~accept:(below fp s k ~gone:(fun _ -> false))
                with
                | None ->
                    Wire.corrupt
                      "stored fact %s has no derivation from facts of lower \
                       rank"
                      (Term.to_string (Bank.term b goal))
                | Some (p, env) ->
                    let premises =
                      List.filter_map
                        (fun prem ->
                          match (prem, premise env prem) with
                          | _, Some (r, u, j) -> Some (build r u j)
                          | Prem_leaf (true, atom), _ ->
                              Some (Explain.Naf (term_of b env atom))
                          | Prem_leaf (false, goal), _ ->
                              Some (Explain.Builtin (term_of b env goal))
                          | Prem_pos _, None -> None)
                        p.premises
                    in
                    Explain.Rule { goal = Bank.term b goal; premises }
              in
              Hashtbl.replace memo goal node;
              node
      in
      let p = build rel id k in
      let sz = Explain.size p and dp = Explain.depth p in
      let c = fp.ctr in
      bump c Ctr.reconstructs;
      c.(Ctr.max_depth) <- max dp c.(Ctr.max_depth);
      c.(Ctr.max_size) <- max sz c.(Ctr.max_size);
      Gdp_obs.Tracer.end_span fp.tracer frame
        ~args:
          [
            ("size", Gdp_obs.Tracer.Int sz);
            ("depth", Gdp_obs.Tracer.Int dp);
          ];
      if Gdp_obs.Tracer.enabled fp.tracer then
        Gdp_obs.Tracer.add fp.tracer "prov.reconstructs" 1;
      Some p

(* ------------------------------------------------------------------ *)
(* persistent snapshots: a data-only export of a materialised fixpoint,
   encoded as a term DAG. Closures (join plans, spatial hooks, the
   tracer) never persist — [import] rebuilds them from the database
   through the same [prepare] / planning path [run] uses, then loads the
   saved facts without re-deriving anything.

   Layout (every number a {!Wire} varint, [int] zigzag-mapped):
     header   the strata and base fact counts (nat); the 10 counters,
              the 3 reconstruction counters and the 10 maintenance
              counters (int); per-stratum statistics (count, then 6 ints
              each); the symbol and node counts (nat)
     symbols  each string: atom and functor names and string constants
     nodes    one record per structurally distinct node in post order,
              so a node's children always come before it:
              tag 0 Atom sym | 1 Int int | 2 Float f64 | 3 Str sym
                | 4 App sym arity child*
              (every stored term is ground, so there is no variable tag)
     relations  count, then in {!Rel.compare} order: name sym, arity,
              sub (0 or 1 + sym), the facts as node ids in insertion
              order, their ranks as gaps (rank - previous - 1), the
              base facts as position gaps (position - previous - 1)
   Ranks are renumbered densely over the whole store, which keeps their
   order: a relation's ranks increase along its insertion order, so
   every gap is a natural, and the ranks of all relations together are
   0 .. facts - 1. Keying base facts by fact position makes the export
   deterministic without sorting, and the import takes their ids from
   the loaded relation instead of decoding them again. *)

type snapshot_state = { data : string; pos : int; len : int }

(* The header, symbols, nodes and relations go to separate buffers,
   because the counts the header declares are known only once the
   relations have been walked; the sections are then copied once into
   the exact-size result. *)
let export fp =
  (* The file numbering tables and the section buffers live exactly as
     long as the encoding. Starting on an empty minor heap lets a small
     or medium store encode without a minor collection in between, so
     they die young instead of being promoted to the major heap. Without
     it the peak heap of a save depends on where the last minor
     collection happened to fall. *)
  Gc.minor ();
  let b = fp.bank in
  let rels =
    Hashtbl.fold (fun rel r acc -> (rel, r) :: acc) fp.rels []
    |> List.sort (fun (a, _) (b, _) -> Rel.compare a b)
  in
  let rel_syms =
    List.map
      (fun ((rel : Rel.t), _) ->
        (Bank.sym b rel.name, Option.map (Bank.sym b) rel.sub))
      rels
  in
  (* symbols and nodes are numbered in the order the walk first meets
     them: relations in order, each fact's nodes in post order *)
  let fsym = Array.make (Bank.n_syms b) (-1)
  and n_fsyms = ref 0
  and sym_buf = Buffer.create 4096 in
  let sym y =
    if fsym.(y) < 0 then begin
      fsym.(y) <- !n_fsyms;
      incr n_fsyms;
      Wire.add_string sym_buf (Bank.name b y)
    end;
    fsym.(y)
  in
  let node_buf = Buffer.create 65536 in
  let fid = Array.make (Bank.size b) (-1) and n_nodes = ref 0 in
  let rec node id =
    if fid.(id) < 0 then begin
      let tag = Bank.tag b id and pay = Bank.payload b id in
      let k = Bank.arity b id in
      for j = 0 to k - 1 do
        ignore (node (Bank.child b id j) : int)
      done;
      Buffer.add_uint8 node_buf tag;
      if tag = Bank.t_int then Wire.add_int node_buf pay
      else if tag = Bank.t_float then Wire.add_float node_buf (Bank.float_val b id)
      else if tag = Bank.t_app then begin
        Wire.add_nat node_buf (sym pay);
        Wire.add_nat node_buf k;
        for j = 0 to k - 1 do
          Wire.add_nat node_buf fid.(Bank.child b id j)
        done
      end
      else Wire.add_nat node_buf (sym pay);
      fid.(id) <- !n_nodes;
      incr n_nodes
    end;
    fid.(id)
  in
  (* the file renumbers ranks densely: rank k becomes dense.(k), the
     number of stored facts ranked below it *)
  let dense = Array.make (fp.clock + 1) 0 in
  List.iter
    (fun (_, (r : Relation.t)) ->
      for i = 0 to r.n - 1 do
        dense.(Bank.rank b r.ids.(i) + 1) <- 1
      done)
    rels;
  for k = 1 to fp.clock do
    dense.(k) <- dense.(k) + dense.(k - 1)
  done;
  let rel_buf = Buffer.create 65536 and part = Buffer.create 4096 in
  let n_base = ref 0 in
  Wire.add_nat rel_buf (List.length rels);
  List.iter2
    (fun ((rel : Rel.t), (r : Relation.t)) (name, sub) ->
      Wire.add_nat rel_buf (sym name);
      Wire.add_nat rel_buf rel.arity;
      Wire.add_nat rel_buf (match sub with None -> 0 | Some s -> 1 + sym s);
      Wire.add_nat rel_buf r.n;
      for i = 0 to r.n - 1 do
        Wire.add_nat rel_buf (node r.ids.(i))
      done;
      let prev = ref (-1) in
      for i = 0 to r.n - 1 do
        let k = dense.(Bank.rank b r.ids.(i)) in
        Wire.add_nat rel_buf (k - !prev - 1);
        prev := k
      done;
      (* the base facts' positions go to [part] behind their count *)
      let prev = ref (-1) and k = ref 0 in
      for i = 0 to r.n - 1 do
        if Itbl.mem fp.base r.ids.(i) then begin
          Wire.add_nat part (i - !prev - 1);
          prev := i;
          incr k
        end
      done;
      Wire.add_nat rel_buf !k;
      Buffer.add_buffer rel_buf part;
      Buffer.clear part;
      n_base := !n_base + !k)
    rels rel_syms;
  (* every asserted fact is stored, so keying them by position loses
     nothing; a miss here is an engine bug *)
  if !n_base <> Itbl.length fp.base then
    failwith "Bottom_up.export: a base fact is not stored";
  let head = Buffer.create 256 in
  List.iter (Wire.add_nat head) [ fp.n_strata; !n_base ];
  for i = 0 to Ctr.persisted - 1 do
    Wire.add_int head fp.ctr.(i)
  done;
  Wire.add_nat head (List.length fp.strata_stats);
  List.iter
    (fun st ->
      List.iter (Wire.add_int head)
        [
          st.st_stratum; st.st_rules; st.st_passes; st.st_firings;
          st.st_derived; st.st_max_delta;
        ])
    fp.strata_stats;
  Wire.add_nat head !n_fsyms;
  Wire.add_nat head !n_nodes;
  let sections = [ head; sym_buf; node_buf; rel_buf ] in
  let len = List.fold_left (fun n b -> n + Buffer.length b) 0 sections in
  let out = Bytes.create len in
  let (_ : int) =
    List.fold_left
      (fun at b ->
        Buffer.blit b 0 out at (Buffer.length b);
        at + Buffer.length b)
      0 sections
  in
  { data = Bytes.unsafe_to_string out; pos = 0; len }

(* the saved fact counter: the header's counters follow two counts *)
let snapshot_facts st =
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  for _ = 1 to 2 do
    ignore (Wire.nat r : int)
  done;
  for _ = 1 to Ctr.facts do
    ignore (Wire.int r : int)
  done;
  Wire.int r

let read_stratum_stats r =
  (* record fields evaluate in no fixed order, so each read is bound first *)
  let st_stratum = Wire.int r in
  let st_rules = Wire.int r in
  let st_passes = Wire.int r in
  let st_firings = Wire.int r in
  let st_derived = Wire.int r in
  let st_max_delta = Wire.int r in
  { st_stratum; st_rules; st_passes; st_firings; st_derived; st_max_delta }

let rec read_list r k read acc =
  if k = 0 then List.rev acc else read_list r (k - 1) read (read r :: acc)

(* Whether node [id] resolves to relation [rel], as {!Datalog.resolve_rel}
   decides it for the node's term: its functor and arity, and the
   constant at the refining argument of a refined predicate. The
   relation's symbols are looked up once; each fact is then checked by
   comparing ints. *)
let belongs b refine (rel : Rel.t) =
  let f = Option.value ~default:(-1) (Hashtbl.find_opt b.Bank.syms rel.name) in
  let refined =
    match (refine (rel.name, rel.arity), rel.sub) with
    | None, None -> Some None
    | Some pos, Some sub -> Some (Some (pos, Bank.lookup b (Term.Atom sub)))
    | _ -> None
  in
  fun id ->
    let tag = Bank.tag b id in
    let arity = if tag = Bank.t_app then Bank.arity b id else 0 in
    (tag = Bank.t_app || tag = Bank.t_atom)
    && Bank.payload b id = f
    && arity = rel.arity
    &&
    match refined with
    | Some None -> true
    | Some (Some (pos, sub)) -> pos < arity && Bank.child b id pos = sub
    | None -> false

let import ?spatial ?(refine = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) db st =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot"
    ~args:[ ("facts", Gdp_obs.Tracer.Int (snapshot_facts st)) ]
    "snap.import"
  @@ fun () ->
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  let n_strata = Wire.nat r in
  (* the tables the payload fills are created at their final size *)
  let n_base = Wire.count r ~min_bytes:1 "base fact" in
  (* the saved counters replace the fresh ones wholesale, which keeps
     the loaded fixpoint's telemetry textually identical to the saved
     one *)
  let ctr = Ctr.fresh () in
  for i = 0 to Ctr.persisted - 1 do
    ctr.(i) <- Wire.int r
  done;
  let strata_stats =
    read_list r
      (Wire.count r ~min_bytes:6 "stratum statistics")
      read_stratum_stats []
  in
  let n_syms = Wire.count r ~min_bytes:1 "symbol" in
  let n_nodes = Wire.count r ~min_bytes:2 "node" in
  let ((_, _, _, db_strata) as prepared) = prepare db ~refine ~spatial in
  if n_strata <> db_strata then
    Wire.corrupt
      "the snapshot stratifies into %d strata, the database into %d: it \
       belongs to a different program"
      n_strata db_strata;
  (* The node columns are sized for the file's nodes plus room for the
     rules' constants, which are mostly stored already; the updates to
     come grow them like any other bank. The children go into chunks
     added as the records arrive, each record's arity clamped by the
     bytes left before any is reserved. The bank is empty when the
     records go in, so node ids are the file's: post order puts every
     child below its parent, each record is interned from nodes already
     interned, and a record that interns to an earlier id repeats that
     record — the file numbers nodes structurally, so it never writes
     one. *)
  let sym syms = syms.(Wire.below r (Array.length syms) "symbol") in
  let b, syms =
    Gdp_obs.Tracer.with_span tracer ~cat:"snapshot" "snap.nodes" @@ fun () ->
    let b = Bank.create ~nodes:(n_nodes + 64) in
    let syms = Array.init n_syms (fun _ -> Bank.sym b (Wire.string r)) in
    for i = 0 to n_nodes - 1 do
      let id =
        match Wire.byte r with
        | 0 -> Bank.leaf b Bank.t_atom (sym syms) true
        | 1 -> Bank.leaf b Bank.t_int (Wire.int r) true
        | 2 -> Bank.leaf b Bank.t_float (Bank.float_index b (Wire.float r)) true
        | 3 -> Bank.leaf b Bank.t_str (sym syms) true
        | 4 ->
            let f = sym syms in
            Bank.record b f (Wire.count r ~min_bytes:1 "argument") r i
        | tag -> Wire.corrupt "node %d has unknown tag %d" i tag
      in
      if id < i then Wire.corrupt "node %d repeats node %d" i id
    done;
    (b, syms)
  in
  let fp, _parsed =
    build_fixpoint ~baseline:None ~spatial ~refine ~tracer ~bank:b ~ctr prepared
  in
  fp.strata_stats <- strata_stats;
  (* the values [0, bound) of an increasing gap-coded list of [k] *)
  let increasing k bound each =
    let prev = ref (-1) in
    for _ = 1 to k do
      let i = !prev + 1 + Wire.below r (bound - !prev - 1) "gap" in
      each i;
      prev := i
    done
  in
  let total =
    Gdp_obs.Tracer.with_span tracer ~cat:"snapshot" "snap.relations"
    @@ fun () ->
    (* ranks must be 0 .. facts - 1, each once *)
    let ranked =
      Bytes.make (max 0 (min ctr.(Ctr.facts) (Wire.remaining r))) '\000'
    in
    let n_rels = Wire.count r ~min_bytes:5 "relation" in
    let total = ref 0 and last = ref None in
    for _ = 1 to n_rels do
      let name = Bank.name b (sym syms) in
      let arity = Wire.nat r in
      let sub =
        match Wire.below r (n_syms + 1) "refinement symbol" with
        | 0 -> None
        | s -> Some (Bank.name b syms.(s - 1))
      in
      let rel = { Rel.name; arity; sub } in
      (match !last with
      | Some prev when Rel.compare prev rel >= 0 ->
          Wire.corrupt "relation %s is out of order" (Rel.to_string rel)
      | _ -> last := Some rel);
      let n = Wire.count r ~min_bytes:2 "fact" in
      let ids = Array.make (if n = 0 then 0 else max 16 n) 0 in
      let belongs = belongs b refine rel in
      for i = 0 to n - 1 do
        let id = Wire.below r n_nodes "node" in
        if not (belongs id) then
          Wire.corrupt "fact %d of %s belongs to another relation" i
            (Rel.to_string rel);
        ids.(i) <- id
      done;
      let i = ref 0 and repeats = ref false in
      increasing n (Bytes.length ranked) (fun k ->
          if Bytes.get ranked k <> '\000' then
            Wire.corrupt "rank %d is given twice" k;
          Bytes.set ranked k '\001';
          let id = ids.(!i) in
          if Bank.stored b id then repeats := true else b.Bank.ranks.(id) <- k;
          incr i);
      if !repeats then
        Wire.corrupt "%s holds duplicate facts" (Rel.to_string rel);
      (* an emptied relation is listed too, and stays listed on export *)
      let loaded = get fp rel in
      if n > 0 then begin
        Relation.load loaded ids n;
        total := !total + n
      end;
      increasing
        (Wire.count r ~min_bytes:1 "base fact")
        n
        (fun i -> Itbl.replace fp.base ids.(i) true)
    done;
    if not (Wire.at_end r) then
      Wire.corrupt "%d trailing bytes after the relations" (Wire.remaining r);
    if !total <> ctr.(Ctr.facts) then
      Wire.corrupt "loaded %d facts, the snapshot counters claim %d" !total
        ctr.(Ctr.facts);
    if Itbl.length fp.base <> n_base then
      Wire.corrupt "the base fact count disagrees with the header";
    !total
  in
  fp.clock <- total;
  (* indexes stay lazy: a hash index is built by the first rule join or
     the second query probe that needs it, a spatial index by the first
     rule join that probes it, so a load pays only for the indexes its
     queries and updates use *)
  gauge fp;
  fp
