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

let ground_paths ~fine g =
  let rec args rev_path i = function
    | [] -> []
    | a :: rest ->
        let here =
          if Term.is_ground a then [ List.rev (i :: rev_path) ]
          else
            match a with
            | Term.App (_, sub) when fine -> args (i :: rev_path) 0 sub
            | _ -> []
        in
        here @ args rev_path (i + 1) rest
  in
  match g with Term.App (_, a) -> args [] 0 a | _ -> []
