type event =
  | Call of int * Term.t
  | Exit of int * Term.t
  | Redo of int * Term.t
  | Fail of int * Term.t

type port_counts = {
  mutable calls : int;
  mutable exits : int;
  mutable redos : int;
  mutable fails : int;
  mutable unifications : int;
}

type stats = {
  refine : Datalog.refine;
  per_pred : (Datalog.Rel.t, port_counts) Hashtbl.t;
  mutable unifications : int;
  mutable loop_prunes : int;
  mutable deepest_call : int;
}

let create_stats ?(refine = fun _ -> None) () =
  {
    refine;
    per_pred = Hashtbl.create 32;
    unifications = 0;
    loop_prunes = 0;
    deepest_call = 0;
  }

(* The row of a call to [fa]: the relation of its goal, unrefined when
   the goal has no constant at the refining argument. *)
let port_counts stats (name, arity) goal =
  let rel =
    match Datalog.resolve_rel stats.refine goal with
    | Ok rel -> rel
    | Error _ -> { Datalog.Rel.name; arity; sub = None }
  in
  match Hashtbl.find_opt stats.per_pred rel with
  | Some pc -> pc
  | None ->
      let pc = { calls = 0; exits = 0; redos = 0; fails = 0; unifications = 0 } in
      Hashtbl.add stats.per_pred rel pc;
      pc

let stats_ports stats =
  Hashtbl.fold (fun rel pc acc -> (rel, pc) :: acc) stats.per_pred []
  |> List.sort (fun (a, _) (b, _) -> Datalog.Rel.compare a b)
  |> List.map (fun (rel, pc) -> (Datalog.Rel.to_string rel, pc))

let total_calls stats =
  Hashtbl.fold (fun _ pc acc -> acc + pc.calls) stats.per_pred 0

type options = {
  max_depth : int;
  occurs_check : bool;
  loop_check : bool;
  on_depth : [ `Fail | `Raise ];
  trace : (event -> unit) option;
  stats : stats option;
  tracer : Gdp_obs.Tracer.t;
}

exception Depth_exhausted of { depth : int; goal : Term.t }

let default_options =
  {
    max_depth = 100_000;
    occurs_check = false;
    loop_check = false;
    on_depth = `Raise;
    trace = None;
    stats = None;
    tracer = Gdp_obs.Tracer.disabled;
  }

type proof =
  | Fact of Term.t
  | Rule of { goal : Term.t; premises : proof list }
  | Builtin of Term.t
  | Naf of Term.t
  | Branch of { goal : Term.t; taken : proof }

type state = {
  opts : options;
  db : Database.t;
  ancestors : Term.t list;
  observed : bool;
}

let emit st ev = match st.opts.trace with None -> () | Some f -> f ev

(* What an answer ['a] carries besides its substitution, and how a clause
   body accumulates its goals' answers (['b]). The bare search answers
   substitutions and every hook hands its substitution or stream back
   untouched; proof search pairs each substitution with its derivation.
   Hooks receive raw pieces, so the bare path builds nothing it would
   discard. *)
type ('a, 'b) answers = {
  subst : 'a -> Subst.t;
  leaves : Term.t -> Subst.t Seq.t -> 'a Seq.t;  (* [true] or a builtin *)
  naf : Term.t -> Subst.t -> 'a;  (* [\+ g] held; [g] unapplied *)
  conj : Term.t -> 'a -> 'a Seq.t -> 'a Seq.t;
      (* [','] or ['->']: the first part's answer, the second's answers *)
  branch : Term.t -> 'a Seq.t -> 'a Seq.t;  (* the alternative taken *)
  empty : Subst.t -> 'b;  (* a body right after head unification *)
  push : 'b -> 'a -> 'b;  (* one more body goal solved *)
  clause : Term.t -> 'b -> 'a;  (* the resolved goal, its body finished *)
}

let bare =
  {
    subst = Fun.id;
    leaves = (fun _ s -> s);
    naf = (fun _ s -> s);
    conj = (fun _ _ s -> s);
    branch = (fun _ s -> s);
    empty = Fun.id;
    push = (fun _ s -> s);
    clause = (fun _ s -> s);
  }

let proofs =
  {
    subst = fst;
    leaves = (fun goal -> Seq.map (fun s -> (s, Builtin (Subst.apply s goal))));
    naf = (fun g s -> (s, Naf (Subst.apply s g)));
    conj =
      (fun goal (_, pa) ->
        Seq.map (fun (s, pb) -> (s, Rule { goal; premises = [ pa; pb ] })));
    branch = (fun goal -> Seq.map (fun (s, taken) -> (s, Branch { goal; taken })));
    empty = (fun s -> (s, []));
    push = (fun (_, ps) (s, p) -> (s, p :: ps));
    clause =
      (fun goal (s, ps) ->
        let goal = Subst.apply s goal in
        match ps with
        | [] -> (s, Fact goal)
        | _ -> (s, Rule { goal; premises = List.rev ps }));
  }

(* The solver threads a depth budget through a depth-first search. Seq
   laziness gives backtracking for free: each Cons carries the rest of the
   answer stream as an unevaluated closure. A negated goal and a builtin's
   sub-proofs only need to know whether (and how) they succeed, so they run
   bare whatever the caller's answer type. *)
let rec solve_goal :
          'a 'b. ('a, 'b) answers -> state -> int -> Subst.t -> Term.t -> 'a Seq.t =
 fun h st depth subst goal ->
  let goal = Subst.walk subst goal in
  match goal with
  | Term.Var _ -> invalid_arg "Solve: unbound variable used as a goal"
  | Term.Int _ | Term.Float _ | Term.Str _ ->
      invalid_arg (Printf.sprintf "Solve: non-callable goal %s" (Term.to_string goal))
  | Term.Atom "true" -> h.leaves goal (Seq.return subst)
  | Term.Atom ("fail" | "false") -> Seq.empty
  | Term.App (",", [ a; b ]) ->
      Seq.concat_map
        (fun ans -> h.conj goal ans (solve_goal h st depth (h.subst ans) b))
        (solve_goal h st depth subst a)
  | Term.App (";", [ Term.App ("->", [ c; t ]); e ]) ->
      h.branch goal
        (match Seq.uncons (solve_goal h st depth subst c) with
        | Some (ans, _) -> h.conj goal ans (solve_goal h st depth (h.subst ans) t)
        | None -> solve_goal h st depth subst e)
  | Term.App (";", [ a; b ]) ->
      h.branch goal
        (Seq.append
           (fun () -> solve_goal h st depth subst a ())
           (fun () -> solve_goal h st depth subst b ()))
  | Term.App ("->", [ c; t ]) -> (
      match Seq.uncons (solve_goal h st depth subst c) with
      | Some (ans, _) -> h.conj goal ans (solve_goal h st depth (h.subst ans) t)
      | None -> Seq.empty)
  | Term.App (("not" | "\\+"), [ g ]) -> (
      match Seq.uncons (solve_goal bare st depth subst g) with
      | Some _ -> Seq.empty
      | None -> Seq.return (h.naf g subst))
  | Term.App ("call", g :: extra) ->
      let g = Subst.walk subst g in
      let called =
        match (g, extra) with
        | _, [] -> g
        | Term.Atom f, _ -> Term.App (f, extra)
        | Term.App (f, args), _ -> Term.App (f, args @ extra)
        | _ -> invalid_arg "Solve: call/N on a non-callable term"
      in
      solve_goal h st depth subst called
  | Term.Atom _ | Term.App _ -> solve_user h st depth subst goal

(* Solve [goals] left to right from [s], pushing each answer onto [acc];
   [finish] turns the accumulated answers into the result. *)
and solve_goals :
      'a 'b 'c.
      ('a, 'b) answers -> state -> int -> ('b -> 'c) -> 'b -> Subst.t ->
      Term.t list -> 'c Seq.t =
 fun h st depth finish acc s -> function
  | [] -> Seq.return (finish acc)
  | g :: rest ->
      Seq.concat_map
        (fun ans -> solve_goals h st depth finish (h.push acc ans) (h.subst ans) rest)
        (solve_goal h st depth s g)

(* Clause resolution shared by the plain and observed paths. [applied] is
   the goal under the current substitution; resolving bindings before
   consulting the clause index lets a body goal whose variables were
   instantiated by the head unification still benefit from keyed lookup. *)
and expand :
      'a 'b.
      ('a, 'b) answers -> state -> port_counts option -> int -> Subst.t ->
      Term.t -> Term.t -> 'a Seq.t =
 fun h st pc depth subst goal applied ->
  let st' =
    if st.opts.loop_check then { st with ancestors = applied :: st.ancestors }
    else st
  in
  let candidates = Database.clauses st.db applied in
  let finish = h.clause goal in
  let try_clause clause =
    let { Database.head; body } = Database.rename_clause clause in
    (match (st.opts.stats, pc) with
    | Some s, Some pc ->
        s.unifications <- s.unifications + 1;
        pc.unifications <- pc.unifications + 1
    | _ -> ());
    match Unify.unify ~occurs_check:st.opts.occurs_check subst goal head with
    | None -> Seq.empty
    | Some subst' -> solve_goals h st' (depth - 1) finish (h.empty subst') subst' body
  in
  Seq.concat_map try_clause candidates

and solve_user_plain :
      'a 'b. ('a, 'b) answers -> state -> int -> Subst.t -> Term.t -> 'a Seq.t =
 fun h st depth subst goal ->
  if depth <= 0 then
    match st.opts.on_depth with
    | `Raise ->
        raise
          (Depth_exhausted
             { depth = st.opts.max_depth; goal = Subst.apply subst goal })
    | `Fail -> Seq.empty
  else
    let applied = Subst.apply subst goal in
    if
      st.opts.loop_check
      (* up to renaming: recursive expansions freshen variable ids, so
         exact equality would never prune a non-ground loop *)
      && List.exists (Term.variant applied) st.ancestors
    then Seq.empty
    else expand h st None depth subst goal applied

(* Full four-port box model. One Call port per user-predicate goal, one
   tracer span opened alongside it; the span closes at the Fail port (or,
   for an answer stream abandoned by committed choice, at
   [Gdp_obs.Tracer.finish]) — so the span count always matches the sum of
   the per-predicate call counters. *)
and solve_user_observed :
      'a 'b.
      ('a, 'b) answers -> state -> int -> Subst.t -> Term.t -> string * int ->
      'a Seq.t =
 fun h st depth subst goal fa ->
  let applied = Subst.apply subst goal in
  let cd = st.opts.max_depth - depth in
  emit st (Call (cd, applied));
  let pc =
    match st.opts.stats with
    | None -> None
    | Some s ->
        if cd > s.deepest_call then s.deepest_call <- cd;
        let pc = port_counts s fa applied in
        pc.calls <- pc.calls + 1;
        Some pc
  in
  let span =
    Gdp_obs.Tracer.begin_span st.opts.tracer ~cat:"solve"
      ~args:[ ("depth", Gdp_obs.Tracer.Int cd) ]
      (fst fa ^ "/" ^ string_of_int (snd fa))
  in
  let fail_port () =
    emit st (Fail (cd, applied));
    (match pc with Some pc -> pc.fails <- pc.fails + 1 | None -> ());
    Gdp_obs.Tracer.end_span st.opts.tracer span
  in
  if depth <= 0 then
    match st.opts.on_depth with
    | `Raise ->
        Gdp_obs.Tracer.end_span st.opts.tracer span;
        raise (Depth_exhausted { depth = st.opts.max_depth; goal = applied })
    | `Fail ->
        fail_port ();
        Seq.empty
  else if st.opts.loop_check && List.exists (Term.variant applied) st.ancestors
  then begin
    (match st.opts.stats with
    | Some s -> s.loop_prunes <- s.loop_prunes + 1
    | None -> ());
    fail_port ();
    Seq.empty
  end
  else begin
    let results = expand h st pc depth subst goal applied in
    (* Exit on each solution, Redo when the stream is re-entered for the
       next one, Fail exactly once when it is exhausted. *)
    let fail_emitted = ref false in
    let rec wrap ~redo seq () =
      if redo then begin
        emit st (Redo (cd, applied));
        match pc with Some pc -> pc.redos <- pc.redos + 1 | None -> ()
      end;
      match seq () with
      | Seq.Nil ->
          if not !fail_emitted then begin
            fail_emitted := true;
            fail_port ()
          end;
          Seq.Nil
      | Seq.Cons (ans, rest) ->
          emit st (Exit (cd, Subst.apply (h.subst ans) goal));
          (match pc with Some pc -> pc.exits <- pc.exits + 1 | None -> ());
          Seq.Cons (ans, wrap ~redo:true rest)
    in
    wrap ~redo:false results
  end

and solve_user :
      'a 'b. ('a, 'b) answers -> state -> int -> Subst.t -> Term.t -> 'a Seq.t =
 fun h st depth subst goal ->
  let fa =
    match Term.functor_of goal with Some fa -> fa | None -> assert false
  in
  match Database.find_builtin st.db (fst fa, snd fa) with
  | Some builtin ->
      let ctx =
        {
          Database.db = st.db;
          prove = (fun s g -> solve_goal bare st depth s g);
          depth;
        }
      in
      let args = match goal with Term.App (_, args) -> args | _ -> [] in
      h.leaves goal (builtin ctx subst args)
  | None ->
      if st.observed then solve_user_observed h st depth subst goal fa
      else solve_user_plain h st depth subst goal

let search h finish options db goals =
  let observed =
    options.trace <> None || options.stats <> None
    || Gdp_obs.Tracer.enabled options.tracer
  in
  let st = { opts = options; db; ancestors = []; observed } in
  solve_goals h st options.max_depth finish (h.empty Subst.empty) Subst.empty goals

let solve ?(options = default_options) db goals = search bare Fun.id options db goals

let prove ?(options = default_options) db goals =
  search proofs (fun (s, ps) -> (s, List.rev ps)) options db goals

let succeeds ?options db goals =
  match Seq.uncons (solve ?options db goals) with Some _ -> true | None -> false

let first ?options db goals =
  match Seq.uncons (solve ?options db goals) with
  | Some (s, _) -> Some s
  | None -> None

let count ?options ?limit db goals =
  let seq = solve ?options db goals in
  let rec go n seq =
    match limit with
    | Some l when n >= l -> n
    | _ -> ( match Seq.uncons seq with None -> n | Some (_, rest) -> go (n + 1) rest)
  in
  go 0 seq

let all ?options ?limit db goals =
  let seq = solve ?options db goals in
  let rec go acc n seq =
    match limit with
    | Some l when n >= l -> List.rev acc
    | _ -> (
        match Seq.uncons seq with
        | None -> List.rev acc
        | Some (s, rest) -> go (s :: acc) (n + 1) rest)
  in
  go [] 0 seq
