let create () =
  let db = Database.create () in
  Builtins.install db;
  Prelude.install db;
  db

let consult = Reader.consult

let named_vars goals =
  List.concat_map Term.vars goals
  |> List.fold_left
       (fun acc (v : Term.var) ->
         if
           String.length v.Term.name > 0
           && v.Term.name.[0] <> '_'
           && not (List.exists (fun (w : Term.var) -> w.Term.id = v.Term.id) acc)
         then v :: acc
         else acc)
       []
  |> List.rev

let ask ?options db src = Solve.succeeds ?options db (Reader.goals src)

let ask_all ?options ?limit db src =
  let goals = Reader.goals src in
  Solve.all ?options ?limit db goals
  |> List.map (fun s -> Subst.restrict (named_vars goals) s)
