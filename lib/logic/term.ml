type var = { name : string; id : int }

type t =
  | Var of var
  | Atom of string
  | Int of int
  | Float of float
  | Str of string
  | App of string * t list

(* atomic so concurrent domains may freshen variables without ever
   minting the same id twice *)
let counter = Atomic.make 0
let fresh_id () = 1 + Atomic.fetch_and_add counter 1

let var name = Var { name; id = fresh_id () }
let var_with_id name id = { name; id }
let atom s = Atom s
let int n = Int n
let float f = Float f
let str s = Str s
let app f = function [] -> Atom f | args -> App (f, args)

let nil = Atom "nil"
let cons h t = App ("cons", [ h; t ])
let list ts = List.fold_right cons ts nil

let rec is_ground = function
  | Var _ -> false
  | Atom _ | Int _ | Float _ | Str _ -> true
  | App (_, args) -> List.for_all is_ground args

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Var v ->
        if not (Hashtbl.mem seen v.id) then begin
          Hashtbl.add seen v.id ();
          acc := v :: !acc
        end
    | Atom _ | Int _ | Float _ | Str _ -> ()
    | App (_, args) -> List.iter go args
  in
  go t;
  List.rev !acc

let functor_of = function
  | Atom name -> Some (name, 0)
  | App (name, args) -> Some (name, List.length args)
  | Var _ | Int _ | Float _ | Str _ -> None

let as_list t =
  let rec go acc = function
    | Atom "nil" -> Some (List.rev acc)
    | App ("cons", [ h; tl ]) -> go (h :: acc) tl
    | _ -> None
  in
  go [] t

(* Physical equality first. Nothing interns terms, but comparisons
   still often meet one object twice: a store looking up a fact it
   holds, a probe key built from a stored fact's own subterms, and the
   shared nodes of an imported snapshot's DAG. There the deep walk is
   skipped. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Var v, Var w -> v.id = w.id
  | Atom x, Atom y -> String.equal x y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | App (f, xs), App (g, ys) ->
      String.equal f g
      && List.length xs = List.length ys
      && List.for_all2 equal xs ys
  | (Var _ | Atom _ | Int _ | Float _ | Str _ | App _), _ -> false

(* ------------------------------------------------------------------ *)
(* Structural hashing.

   [hash] folds the whole term (no [Hashtbl.hash] depth cutoff, which
   would collide every deep fact onto few buckets) and is consistent with
   [equal]/[compare]: equal terms hash equally. Variables hash by [id],
   matching [equal]'s id-only variable equality. *)

let fold_hash h x = (h * 0x01000193) lxor (x land max_int)

let rec hash_into h t =
  match t with
  | Var v -> fold_hash (fold_hash h 1) v.id
  | Float f -> fold_hash (fold_hash h 2) (Hashtbl.hash f)
  | Int n -> fold_hash (fold_hash h 3) n
  | Atom s -> fold_hash (fold_hash h 4) (Hashtbl.hash s)
  | Str s -> fold_hash (fold_hash h 5) (Hashtbl.hash s)
  | App (f, args) ->
      let h = fold_hash (fold_hash h 6) (Hashtbl.hash f) in
      List.fold_left hash_into h args

let hash t = hash_into 0x811c9dc5 t land max_int

(* Standard order of terms: Var < Float < Int < Atom < Str < App. *)
let rank = function
  | Var _ -> 0
  | Float _ -> 1
  | Int _ -> 2
  | Atom _ -> 3
  | Str _ -> 4
  | App _ -> 5

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Var v, Var w -> Int.compare v.id w.id
    | Float x, Float y -> Float.compare x y
    | Int x, Int y -> Int.compare x y
    | Atom x, Atom y -> String.compare x y
    | Str x, Str y -> String.compare x y
    | App (f, xs), App (g, ys) ->
        let c = Int.compare (List.length xs) (List.length ys) in
        if c <> 0 then c
        else
          let c = String.compare f g in
          if c <> 0 then c else List.compare compare xs ys
    | _ -> Int.compare (rank a) (rank b)

let rec rename lookup fresh t =
  match t with
  | Var v -> ( match lookup v.id with Some w -> Var w | None -> fresh v)
  | Atom _ | Int _ | Float _ | Str _ -> t
  | App (f, args) -> App (f, List.map (rename lookup fresh) args)

(* equality up to a consistent renaming of variables (bijective) *)
let variant a b =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let rec go a b =
    match (a, b) with
    | Var v, Var w -> (
        match (Hashtbl.find_opt fwd v.id, Hashtbl.find_opt bwd w.id) with
        | Some w', Some v' -> w' = w.id && v' = v.id
        | None, None ->
            Hashtbl.add fwd v.id w.id;
            Hashtbl.add bwd w.id v.id;
            true
        | _ -> false)
    | Atom x, Atom y -> String.equal x y
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y
    | Str x, Str y -> String.equal x y
    | App (f, xs), App (g, ys) ->
        String.equal f g && List.length xs = List.length ys && List.for_all2 go xs ys
    | (Var _ | Atom _ | Int _ | Float _ | Str _ | App _), _ -> false
  in
  go a b

let needs_quotes s =
  String.length s = 0
  ||
  match s.[0] with
  | 'a' .. 'z' ->
      String.exists
        (fun c ->
          not
            (match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
            | _ -> false))
        s
  | _ -> true

let pp_atom ppf s =
  if needs_quotes s then Format.fprintf ppf "'%s'" s else Format.pp_print_string ppf s

let pp_float ppf f =
  if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.1f" f
  else begin
    (* shortest decimal that parses back exactly *)
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then Format.pp_print_string ppf short
    else Format.fprintf ppf "%.17g" f
  end

let rec pp ppf t =
  match t with
  | Var v -> Format.fprintf ppf "%s_%d" v.name v.id
  | Atom s -> pp_atom ppf s
  | Int n -> Format.pp_print_int ppf n
  | Float f -> pp_float ppf f
  | Str s -> Format.fprintf ppf "%S" s
  | App ("cons", [ _; _ ]) -> pp_list ppf t
  | App (f, args) ->
      Format.fprintf ppf "%a(%a)" pp_atom f
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
        args

and pp_list ppf t =
  let rec elems ppf = function
    | Atom "nil" -> ()
    | App ("cons", [ h; (App ("cons", [ _; _ ]) as tl) ]) ->
        Format.fprintf ppf "%a, %a" pp h elems tl
    | App ("cons", [ h; Atom "nil" ]) -> pp ppf h
    | App ("cons", [ h; tl ]) -> Format.fprintf ppf "%a | %a" pp h pp tl
    | other -> pp ppf other
  in
  Format.fprintf ppf "[%a]" elems t

let to_string t = Format.asprintf "%a" pp t
