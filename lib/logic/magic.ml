(* Magic-set rewriting: goal-directed bottom-up evaluation.

   The rewrite works at the term level on [Database] clauses so that its
   output is an ordinary database [Bottom_up.run] can evaluate; only the
   query seed travels out of band (the [~seed] parameter). Clauses are
   classified, safety-checked and join-ordered by {!Datalog}, the module
   the evaluator runs them through: an out-of-fragment clause fails with
   the evaluator's reason, and the adornments computed here describe
   exactly the variable bindings the evaluator's join planner will
   exploit. Unlike the evaluator, the rewrite classifies clause by
   clause and never stratifies: a negation cycle the goal cannot reach
   is dropped, not rejected. *)

open Datalog
module Rel_set = Set.Make (Rel)

(* ------------------------------------------------------------------ *)
(* adornments and magic atoms                                           *)

let args_of t = match t with Term.App (_, args) -> args | _ -> []

(* One character per argument position: bound when every variable in the
   argument is in [bound] (ground arguments are always bound). For the
   query goal itself pass [Iset.empty]: bound = ground. *)
let adornment_of bound t =
  String.init (List.length (args_of t)) (fun i ->
      if Iset.subset (vset (List.nth (args_of t) i)) bound then 'b' else 'f')

let bound_args adornment t =
  List.filteri (fun i _ -> adornment.[i] = 'b') (args_of t)

let magic_name name ~sub ~adornment =
  Printf.sprintf "magic$%s$%s$%s" name
    (Option.value ~default:"" sub)
    adornment

let magic_atom (k : Rel.t) ~adornment args =
  Term.app (magic_name k.Rel.name ~sub:k.Rel.sub ~adornment) args

(* ------------------------------------------------------------------ *)

type info = {
  adorned : (string * string) list;
  magic_rules : int;
  guarded_rules : int;
  copied_rules : int;
  dropped_rules : int;
  seeds : Term.t list;
  fallback_preds : string list;
  fallback_strata : int;
  full_fallback : bool;
}

(* Longest-path stratum numbers by iteration to a fixpoint. The rewrite
   does not stratify, so the rules may hold a negation cycle the goal
   cannot reach; the iteration bound stops that case, whose numbers no
   fallback predicate reads. *)
let strata_of rules =
  let stratum = Hashtbl.create 32 in
  let get k = Option.value ~default:0 (Hashtbl.find_opt stratum k) in
  let changed = ref true and passes = ref 0 in
  let cap = 4 * (List.length rules + 1) in
  while !changed && !passes < cap do
    changed := false;
    incr passes;
    List.iter
      (fun r ->
        let s =
          List.fold_left
            (fun s -> function
              | Pos (_, k, _, _) -> max s (get k)
              | Neg (k, _, _) -> max s (get k + 1)
              | Cmp _ | Eq _ | Is _ | Ext _ | Never -> s)
            0 r.body
        in
        if s > get r.head_rel then begin
          Hashtbl.replace stratum r.head_rel s;
          changed := true
        end)
      rules
  done;
  get

let distinct_strata get keys =
  Rel_set.fold (fun k acc -> Iset.add (get k) acc) keys Iset.empty
  |> Iset.cardinal

let rewrite ?(refine = fun _ -> None) ?spatial
    ?(tracer = Gdp_obs.Tracer.disabled) ~goal db =
  Gdp_obs.Tracer.with_span tracer ~cat:"fixpoint" "magic.rewrite" @@ fun () ->
  let ext =
    match spatial with Some sp -> sp.Bottom_up.sp_ext | None -> fun _ -> None
  in
  let facts, rules = parse db ~refine ~ext in
  let idb =
    List.fold_left (fun s r -> Rel_set.add r.head_rel s) Rel_set.empty rules
  in
  let rules_of =
    List.fold_left
      (fun m r ->
        Rel_map.update r.head_rel
          (fun l -> Some (r :: Option.value ~default:[] l))
          m)
      Rel_map.empty rules
    |> Rel_map.map List.rev
  in
  let stratum = strata_of rules in
  let finish ~out ~seeds ~adorned ~magic_rules ~guarded_rules ~copied_rules
      ~dropped_rules ~fallback ~full_fallback =
    let info =
      {
        adorned = List.sort compare adorned;
        magic_rules;
        guarded_rules;
        copied_rules;
        dropped_rules;
        seeds;
        fallback_preds =
          List.sort_uniq compare
            (List.map Rel.to_string (Rel_set.elements fallback));
        fallback_strata = distinct_strata stratum fallback;
        full_fallback;
      }
    in
    if Gdp_obs.Tracer.enabled tracer then begin
      let set n v = Gdp_obs.Tracer.set tracer n (float_of_int v) in
      set "bu.magic.adorned" (List.length info.adorned);
      set "bu.magic.magic_rules" info.magic_rules;
      set "bu.magic.guarded_rules" info.guarded_rules;
      set "bu.magic.copied_rules" info.copied_rules;
      set "bu.magic.dropped_rules" info.dropped_rules;
      set "bu.magic.seeds" (List.length info.seeds);
      set "bu.magic.fallback_strata" info.fallback_strata;
      set "bu.magic.full_fallback" (if info.full_fallback then 1 else 0)
    end;
    (out, info)
  in
  match resolve_rel refine goal with
  | Error _ ->
      (* The goal's predicate position is unbound: no relevance to
         exploit; evaluate the original program in full. *)
      finish ~out:db ~seeds:[] ~adorned:[] ~magic_rules:0 ~guarded_rules:0
        ~copied_rules:(List.length rules) ~dropped_rules:0
        ~fallback:idb ~full_fallback:true
  | Ok goal_key ->
      (* The predicates [keep] admits that rule bodies (any polarity)
         lead to from [start], [start] included. *)
      let closure ~keep start =
        let seen = ref start and queue = Queue.create () in
        Rel_set.iter (fun k -> Queue.add k queue) start;
        while not (Queue.is_empty queue) do
          List.iter
            (fun r ->
              List.iter
                (function
                  | (Pos (_, q, _, _) | Neg (q, _, _))
                    when keep q && not (Rel_set.mem q !seen) ->
                      seen := Rel_set.add q !seen;
                      Queue.add q queue
                  | _ -> ())
                r.body)
            (Option.value ~default:[]
               (Rel_map.find_opt (Queue.pop queue) rules_of))
        done;
        !seen
      in
      (* Everything the goal cannot reach is irrelevant and dropped. *)
      let reachable =
        closure ~keep:(fun _ -> true) (Rel_set.singleton goal_key)
      in
      (* Negation soundness: an IDB predicate needed under negation must
         be complete, not merely asked-for — close the negated set under
         dependencies and evaluate those predicates in full. *)
      let fallback =
        List.fold_left
          (fun acc r ->
            if Rel_set.mem r.head_rel reachable then
              List.fold_left
                (fun acc -> function
                  | Neg (q, _, _) when Rel_set.mem q idb -> Rel_set.add q acc
                  | _ -> acc)
                acc r.body
            else acc)
          Rel_set.empty rules
        |> closure ~keep:(fun q -> Rel_set.mem q idb)
      in
      let magicable =
        Rel_set.diff (Rel_set.inter reachable idb) fallback
      in
      let full_fallback =
        (not (Rel_set.mem goal_key magicable)) && Rel_set.mem goal_key idb
      in
      let out = Database.create () in
      List.iter (fun (_, t) -> Database.fact out t) facts;
      let copied = ref 0 and dropped = ref 0 in
      (* Fallback rules first, in textual order, unguarded. *)
      List.iter
        (fun r ->
          if
            Rel_set.mem r.head_rel reachable
            && not (Rel_set.mem r.head_rel magicable)
          then begin
            incr copied;
            Database.assertz out
              {
                Database.head = r.head;
                body = List.map goal_of r.body;
              }
          end
          else if not (Rel_set.mem r.head_rel reachable) then incr dropped)
        rules;
      (* Adornment worklist from the goal. *)
      let seen = Hashtbl.create 16 in
      let queue = Queue.create () in
      let adorned = ref [] and magic_rules = ref 0 and guarded_rules = ref 0 in
      let adorned_keys = ref Rel_set.empty in
      let enqueue k adornment =
        if not (Hashtbl.mem seen (k, adornment)) then begin
          Hashtbl.add seen (k, adornment) ();
          adorned_keys := Rel_set.add k !adorned_keys;
          Queue.add (k, adornment) queue
        end
      in
      let goal_adornment = adornment_of Iset.empty goal in
      let seeds =
        if Rel_set.mem goal_key magicable then begin
          enqueue goal_key goal_adornment;
          [
            magic_atom goal_key ~adornment:goal_adornment
              (bound_args goal_adornment goal);
          ]
        end
        else []
      in
      while not (Queue.is_empty queue) do
        let k, adornment = Queue.pop queue in
        adorned := (Rel.to_string k, adornment) :: !adorned;
        List.iter
          (fun r ->
            if List.exists (function Never -> true | _ -> false) r.body then
              ()
            else begin
              let head_args = args_of r.head in
              let bound0 =
                List.fold_left
                  (fun (i, s) arg ->
                    ( i + 1,
                      if adornment.[i] = 'b' then Iset.union s (vset arg)
                      else s ))
                  (0, Iset.empty) head_args
                |> snd
              in
              let magic_guard =
                magic_atom k ~adornment (bound_args adornment r.head)
              in
              let plan = order_body ~bound:bound0 ~delta_at:None r.body in
              let bound = ref bound0 and prefix = ref [ magic_guard ] in
              List.iter
                (fun lit ->
                  (match lit with
                  | Pos (_, q, atom, _) when Rel_set.mem q magicable ->
                      let aq = adornment_of !bound atom in
                      incr magic_rules;
                      Database.assertz out
                        {
                          Database.head =
                            magic_atom q ~adornment:aq (bound_args aq atom);
                          body = List.rev !prefix;
                        };
                      enqueue q aq
                  | _ -> ());
                  bound := extend_bound !bound lit;
                  prefix := goal_of lit :: !prefix)
                plan;
              incr guarded_rules;
              Database.assertz out
                {
                  Database.head = r.head;
                  body = magic_guard :: List.map goal_of plan;
                }
            end)
          (Option.value ~default:[] (Rel_map.find_opt k rules_of))
      done;
      (* Magicable predicates never reached by an adornment are
         irrelevant after all: their rules were not emitted. *)
      Rel_set.iter
        (fun k ->
          if not (Rel_set.mem k !adorned_keys) then
            dropped :=
              !dropped
              + List.length (Option.value ~default:[] (Rel_map.find_opt k rules_of)))
        magicable;
      finish ~out ~seeds ~adorned:!adorned ~magic_rules:!magic_rules
        ~guarded_rules:!guarded_rules ~copied_rules:!copied
        ~dropped_rules:!dropped
        ~fallback:(Rel_set.inter fallback reachable)
        ~full_fallback

let is_magic_atom t =
  match Term.functor_of t with
  | Some (name, _) ->
      String.length name > 6 && String.equal (String.sub name 0 6) "magic$"
  | None -> false

let rec strip_proof (p : Explain.proof) : Explain.proof =
  match p with
  | Explain.Rule { goal; premises } ->
      Explain.Rule
        {
          goal;
          premises =
            List.filter_map
              (fun q ->
                if is_magic_atom (Explain.goal_of q) then None
                else Some (strip_proof q))
              premises;
        }
  | Explain.Branch { goal; taken } ->
      Explain.Branch { goal; taken = strip_proof taken }
  | (Explain.Fact _ | Explain.Builtin _ | Explain.Naf _) as leaf -> leaf
