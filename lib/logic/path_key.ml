module Tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

exception Absent

let rec at t = function
  | [] -> t
  | i :: path -> (
      match t with
      | Term.Var _ -> t
      | Term.App (_, args) -> (
          match List.nth_opt args i with
          | Some a -> at a path
          | None -> raise_notrace Absent)
      | _ -> raise_notrace Absent)

let subterm_at path t = match at t path with k -> Some k | exception Absent -> None

let ground_paths ?(bound = fun _ -> false) g =
  let rec ground = function
    | Term.Var v -> bound v
    | Term.App (_, args) -> List.for_all ground args
    | _ -> true
  in
  let rec args rev_path i = function
    | [] -> []
    | a :: rest ->
        let here =
          if ground a then [ List.rev (i :: rev_path) ]
          else
            match a with
            | Term.App (_, sub) -> args (i :: rev_path) 0 sub
            | _ -> []
        in
        here @ args rev_path (i + 1) rest
  in
  match g with Term.App (_, a) -> args [] 0 a | _ -> []

let top path = List.compare_length_with path 1 = 0

let shared path = function
  | Term.App _ | Term.Var _ -> false
  | Term.Atom "nil" -> true
  | _ -> top path

let key_path g =
  let paths = ground_paths g in
  let pick ok =
    List.find_opt (fun path -> ok path (Option.get (subterm_at path g))) paths
  in
  List.find_map pick
    [ (fun path t -> not (shared path t)); (fun path _ -> top path); (fun _ _ -> true) ]
