(* Magic-set rewriting: goal-directed bottom-up evaluation.

   The rewrite works at the term level on [Database] clauses so that its
   output is an ordinary database [Bottom_up.run] can evaluate; only the
   query seed travels out of band (the [~seed] parameter). The literal
   classification, refinement handling, safety discipline and the greedy
   sideways-information-passing order all mirror [Bottom_up] — the
   adornments computed here describe exactly the variable bindings the
   evaluator's own join planner will exploit. *)

module Iset = Set.Make (Int)

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Bottom_up.Unsupported s)) fmt

(* Predicate identity: name, arity and the refinement constant (the
   [Bottom_up.refine] split), mirroring the evaluator's [Rel]. *)
module Key = struct
  type t = { name : string; arity : int; sub : string option }

  let compare (a : t) (b : t) =
    match String.compare a.name b.name with
    | 0 -> (
        match Int.compare a.arity b.arity with
        | 0 -> Option.compare String.compare a.sub b.sub
        | c -> c)
    | c -> c

  let to_string k =
    match k.sub with
    | None -> Printf.sprintf "%s/%d" k.name k.arity
    | Some s -> Printf.sprintf "%s/%d[%s]" k.name k.arity s
end

module Kset = Set.Make (Key)
module Kmap = Map.Make (Key)

let control_functors = [ ","; ";"; "->"; "call"; "="; "\\=" ]
let cmp_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\=" ]

let key_of ~refine ~what t =
  match Term.functor_of t with
  | None -> unsupported "%s: %s is not a predicate atom" what (Term.to_string t)
  | Some (name, arity) -> (
      match refine (name, arity) with
      | None -> { Key.name; arity; sub = None }
      | Some pos -> (
          let arg =
            match t with Term.App (_, args) -> List.nth_opt args pos | _ -> None
          in
          match arg with
          | Some (Term.Atom p) -> { Key.name; arity; sub = Some p }
          | _ ->
              unsupported
                "%s: %s/%d needs a constant at refining argument %d in %s" what
                name arity pos (Term.to_string t)))

let vset t =
  List.fold_left
    (fun s (v : Term.var) -> Iset.add v.Term.id s)
    Iset.empty (Term.vars t)

let ext_input_vars inputs atom =
  match atom with
  | Term.App (_, args) ->
      List.fold_left
        (fun s i ->
          match List.nth_opt args i with
          | Some a -> Iset.union s (vset a)
          | None -> s)
        Iset.empty inputs
  | _ -> Iset.empty

(* Body literals, with the original goal term kept for re-emission. *)
type lit =
  | Pos of Key.t * Term.t
  | Neg of Key.t * Term.t * Term.t  (* key, inner atom, original wrapper *)
  | Guard of Term.t  (* comparison or ==/\== : reads, never binds *)
  | Is of Term.t * Term.t * Term.t  (* lhs, rhs, original term *)
  | Ext of int list * Term.t  (* whitelisted spatial builtin: inputs, goal *)
  | Never

let orig_of = function
  | Pos (_, t) | Neg (_, _, t) | Guard t | Is (_, _, t) | Ext (_, t) -> t
  | Never -> Term.atom "fail"

(* Mirror of [Bottom_up.parse_body_goal] over the same fragment. *)
let classify_goal db ~refine ~spatial_ext ~ctx g =
  match g with
  | Term.Var _ -> unsupported "%s: unbound variable used as a body goal" ctx
  | Term.Int _ | Term.Float _ | Term.Str _ ->
      unsupported "%s: non-callable body goal %s" ctx (Term.to_string g)
  | Term.Atom "true" -> None
  | Term.Atom ("fail" | "false") -> Some Never
  | Term.Atom _ | Term.App _ -> (
      let name, arity =
        match Term.functor_of g with Some fa -> fa | None -> assert false
      in
      if List.mem name control_functors then
        unsupported "%s: control construct %s/%d in the body" ctx name arity
      else if (String.equal name "not" || String.equal name "\\+") && arity = 1
      then begin
        let inner = match g with Term.App (_, [ x ]) -> x | _ -> assert false in
        match Term.functor_of inner with
        | None ->
            unsupported "%s: negation of non-atomic goal %s" ctx
              (Term.to_string inner)
        | Some (iname, iarity) ->
            if
              List.mem iname control_functors
              || String.equal iname "not" || String.equal iname "\\+"
              || (iarity = 2 && (List.mem iname cmp_ops || String.equal iname "is"))
              || List.mem iname [ "true"; "fail"; "false"; "=="; "\\==" ]
            then
              unsupported "%s: negation of non-atomic goal %s" ctx
                (Term.to_string inner)
            else if List.mem (iname, iarity) Prelude.predicates then
              unsupported
                "%s: library predicate %s/%d outside the Datalog fragment" ctx
                iname iarity
            else if Database.find_builtin db (iname, iarity) <> None then
              unsupported "%s: builtin %s/%d under negation" ctx iname iarity
            else Some (Neg (key_of ~refine ~what:ctx inner, inner, g))
      end
      else if arity = 2 && List.mem name cmp_ops then Some (Guard g)
      else if arity = 2 && String.equal name "is" then
        match g with
        | Term.App (_, [ l; r ]) -> Some (Is (l, r, g))
        | _ -> assert false
      else if arity = 2 && (String.equal name "==" || String.equal name "\\==")
      then Some (Guard g)
      else if List.mem (name, arity) Prelude.predicates then
        unsupported "%s: library predicate %s/%d outside the Datalog fragment"
          ctx name arity
      else
        match spatial_ext (name, arity) with
        | Some inputs -> Some (Ext (inputs, g))
        | None ->
            if Database.find_builtin db (name, arity) <> None then
              unsupported "%s: builtin %s/%d" ctx name arity
            else Some (Pos (key_of ~refine ~what:ctx g, g)))

(* Mirror of [Bottom_up.check_safety]: left-to-right boundness in the
   original textual order. A program that passes here always admits the
   sideways-information-passing orders emitted below. *)
let check_safety ~ctx head body =
  let bound =
    List.fold_left
      (fun bound lit ->
        match lit with
        | Pos (_, atom) -> Iset.union bound (vset atom)
        | Is (l, r, _) ->
            if not (Iset.subset (vset r) bound) then
              unsupported
                "%s: arithmetic expression %s uses variables not bound by a \
                 preceding positive literal" ctx (Term.to_string r);
            Iset.union bound (vset l)
        | Guard g ->
            if not (Iset.subset (vset g) bound) then
              unsupported
                "%s: comparison guard uses variables not bound by a preceding \
                 positive literal" ctx;
            bound
        | Neg (_, atom, _) ->
            if not (Iset.subset (vset atom) bound) then
              unsupported
                "%s: negated literal %s must be ground when reached (bind its \
                 variables with a preceding positive literal)" ctx
                (Term.to_string atom);
            bound
        | Ext (inputs, atom) ->
            if not (Iset.subset (ext_input_vars inputs atom) bound) then
              unsupported
                "%s: spatial builtin %s needs its input arguments bound by a \
                 preceding positive literal" ctx (Term.to_string atom);
            Iset.union bound (vset atom)
        | Never -> bound)
      Iset.empty body
  in
  if not (Iset.subset (vset head) bound) then
    unsupported "%s: head variable not bound by the body" ctx

type cl = { chead : Term.t; ckey : Key.t; cbody : lit list }

let parse db ~refine ~spatial_ext =
  let facts = ref [] and rules = ref [] in
  List.iter
    (fun fa ->
      if not (List.mem fa Prelude.predicates) then
        List.iter
          (fun (c : Database.clause) ->
            let ckey = key_of ~refine ~what:"clause head" c.Database.head in
            let ctx = Key.to_string ckey in
            if c.Database.body = [] then begin
              if not (Term.is_ground c.Database.head) then
                unsupported "%s: non-ground fact %s" ctx
                  (Term.to_string c.Database.head);
              facts := c.Database.head :: !facts
            end
            else begin
              let body =
                List.filter_map
                  (classify_goal db ~refine ~spatial_ext ~ctx)
                  c.Database.body
              in
              check_safety ~ctx c.Database.head body;
              rules := { chead = c.Database.head; ckey; cbody = body } :: !rules
            end)
          (Database.all_clauses db fa))
    (Database.predicates db);
  (List.rev !facts, List.rev !rules)

(* ------------------------------------------------------------------ *)
(* sideways information passing: the evaluator's greedy order, seeded
   with the head variables the adornment marks bound                    *)

let guard_ready bound = function
  | Guard g -> Iset.subset (vset g) bound
  | Is (_, r, _) -> Iset.subset (vset r) bound
  | Neg (_, atom, _) -> Iset.subset (vset atom) bound
  | Ext (inputs, atom) -> Iset.subset (ext_input_vars inputs atom) bound
  | Never -> true
  | Pos _ -> false

let bound_arg_count bound atom =
  match atom with
  | Term.App (_, args) ->
      List.fold_left
        (fun n arg -> if Iset.subset (vset arg) bound then n + 1 else n)
        0 args
  | _ -> 0

let remove_first x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest -> if y == x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] l

let sip_order bound0 body =
  let rec flush_guards bound plan remaining =
    let ready, rest = List.partition (guard_ready bound) remaining in
    if ready = [] then (bound, plan, rest)
    else
      let bound =
        List.fold_left
          (fun b -> function
            | Is (l, _, _) -> Iset.union b (vset l)
            | Ext (_, atom) -> Iset.union b (vset atom)
            | _ -> b)
          bound ready
      in
      flush_guards bound (plan @ ready) rest
  in
  let rec go bound plan remaining =
    let bound, plan, remaining = flush_guards bound plan remaining in
    if remaining = [] then plan
    else
      let best =
        List.fold_left
          (fun best lit ->
            match lit with
            | Pos (_, atom) -> (
                let c = bound_arg_count bound atom in
                match best with
                | Some (bc, _) when bc >= c -> best
                | _ -> Some (c, lit))
            | _ -> best)
          None remaining
      in
      match best with
      | Some (_, (Pos (_, atom) as lit)) ->
          go
            (Iset.union bound (vset atom))
            (plan @ [ lit ])
            (remove_first lit remaining)
      | _ -> plan @ remaining
  in
  go bound0 [] body

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

let magic_atom (k : Key.t) ~adornment args =
  Term.app (magic_name k.Key.name ~sub:k.Key.sub ~adornment) args

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

(* Longest-path stratum numbers by iteration to a fixpoint (the input is
   stratified or [Bottom_up.run] would reject it; the iteration bound
   only guards against that degenerate case). *)
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
              | Pos (k, _) -> max s (get k)
              | Neg (k, _, _) -> max s (get k + 1)
              | Guard _ | Is _ | Ext _ | Never -> s)
            0 r.cbody
        in
        if s > get r.ckey then begin
          Hashtbl.replace stratum r.ckey s;
          changed := true
        end)
      rules
  done;
  get

let distinct_strata get keys =
  Kset.fold (fun k acc -> Iset.add (get k) acc) keys Iset.empty
  |> Iset.cardinal

let rewrite ?(refine = fun _ -> None) ?(spatial_ext = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) ~goal db =
  Gdp_obs.Tracer.with_span tracer ~cat:"fixpoint" "magic.rewrite" @@ fun () ->
  let facts, rules = parse db ~refine ~spatial_ext in
  let idb =
    List.fold_left (fun s r -> Kset.add r.ckey s) Kset.empty rules
  in
  let rules_of =
    List.fold_left
      (fun m r ->
        Kmap.update r.ckey
          (fun l -> Some (r :: Option.value ~default:[] l))
          m)
      Kmap.empty rules
    |> Kmap.map List.rev
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
            (List.map Key.to_string (Kset.elements fallback));
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
  match
    match Term.functor_of goal with
    | None -> None
    | Some _ -> (
        try Some (key_of ~refine ~what:"goal" goal)
        with Bottom_up.Unsupported _ -> None)
  with
  | None ->
      (* The goal's predicate position is unbound: no relevance to
         exploit; evaluate the original program in full. *)
      finish ~out:db ~seeds:[] ~adorned:[] ~magic_rules:0 ~guarded_rules:0
        ~copied_rules:(List.length rules) ~dropped_rules:0
        ~fallback:idb ~full_fallback:true
  | Some goal_key ->
      (* Predicates reachable from the goal through rule bodies (any
         polarity): everything else is irrelevant and dropped. *)
      let reachable =
        let seen = ref (Kset.singleton goal_key) in
        let queue = Queue.create () in
        Queue.add goal_key queue;
        while not (Queue.is_empty queue) do
          let k = Queue.pop queue in
          List.iter
            (fun r ->
              List.iter
                (fun lit ->
                  match lit with
                  | Pos (q, _) | Neg (q, _, _) ->
                      if not (Kset.mem q !seen) then begin
                        seen := Kset.add q !seen;
                        Queue.add q queue
                      end
                  | Guard _ | Is _ | Ext _ | Never -> ())
                r.cbody)
            (Option.value ~default:[] (Kmap.find_opt k rules_of))
        done;
        !seen
      in
      (* Negation soundness: an IDB predicate needed under negation must
         be complete, not merely asked-for — close the negated set under
         dependencies and evaluate those predicates in full. *)
      let fallback =
        let negated =
          List.fold_left
            (fun acc r ->
              if Kset.mem r.ckey reachable then
                List.fold_left
                  (fun acc -> function
                    | Neg (q, _, _) when Kset.mem q idb -> Kset.add q acc
                    | _ -> acc)
                  acc r.cbody
              else acc)
            Kset.empty rules
        in
        let result = ref negated in
        let queue = Queue.create () in
        Kset.iter (fun k -> Queue.add k queue) negated;
        while not (Queue.is_empty queue) do
          let k = Queue.pop queue in
          List.iter
            (fun r ->
              List.iter
                (fun lit ->
                  match lit with
                  | Pos (q, _) | Neg (q, _, _) ->
                      if Kset.mem q idb && not (Kset.mem q !result) then begin
                        result := Kset.add q !result;
                        Queue.add q queue
                      end
                  | Guard _ | Is _ | Ext _ | Never -> ())
                r.cbody)
            (Option.value ~default:[] (Kmap.find_opt k rules_of))
        done;
        !result
      in
      let magicable =
        Kset.diff (Kset.inter reachable idb) fallback
      in
      let full_fallback = not (Kset.mem goal_key magicable) && Kset.mem goal_key idb in
      let out = Database.create () in
      List.iter (Database.fact out) facts;
      let copied = ref 0 and dropped = ref 0 in
      (* Fallback rules first, in textual order, unguarded. *)
      List.iter
        (fun r ->
          if Kset.mem r.ckey reachable && not (Kset.mem r.ckey magicable) then begin
            incr copied;
            Database.assertz out
              {
                Database.head = r.chead;
                body = List.map orig_of r.cbody;
              }
          end
          else if not (Kset.mem r.ckey reachable) then incr dropped)
        rules;
      (* Adornment worklist from the goal. *)
      let seen = Hashtbl.create 16 in
      let queue = Queue.create () in
      let adorned = ref [] and magic_rules = ref 0 and guarded_rules = ref 0 in
      let adorned_keys = ref Kset.empty in
      let enqueue k adornment =
        if not (Hashtbl.mem seen (k, adornment)) then begin
          Hashtbl.add seen (k, adornment) ();
          adorned_keys := Kset.add k !adorned_keys;
          Queue.add (k, adornment) queue
        end
      in
      let goal_adornment = adornment_of Iset.empty goal in
      let seeds =
        if Kset.mem goal_key magicable then begin
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
        adorned := (Key.to_string k, adornment) :: !adorned;
        List.iter
          (fun r ->
            if List.exists (function Never -> true | _ -> false) r.cbody then
              ()
            else begin
              let head_args = args_of r.chead in
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
                magic_atom k ~adornment (bound_args adornment r.chead)
              in
              let plan = sip_order bound0 r.cbody in
              let bound = ref bound0 and prefix = ref [ magic_guard ] in
              List.iter
                (fun lit ->
                  (match lit with
                  | Pos (q, atom) when Kset.mem q magicable ->
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
                  match lit with
                  | Pos (_, atom) ->
                      bound := Iset.union !bound (vset atom);
                      prefix := atom :: !prefix
                  | Is (l, _, orig) ->
                      bound := Iset.union !bound (vset l);
                      prefix := orig :: !prefix
                  | Ext (_, atom) ->
                      bound := Iset.union !bound (vset atom);
                      prefix := atom :: !prefix
                  | Neg (_, _, orig) | Guard orig -> prefix := orig :: !prefix
                  | Never -> ())
                plan;
              incr guarded_rules;
              Database.assertz out
                {
                  Database.head = r.chead;
                  body = magic_guard :: List.map orig_of plan;
                }
            end)
          (Option.value ~default:[] (Kmap.find_opt k rules_of))
      done;
      (* Magicable predicates never reached by an adornment are
         irrelevant after all: their rules were not emitted. *)
      Kset.iter
        (fun k ->
          if not (Kset.mem k !adorned_keys) then
            dropped :=
              !dropped
              + List.length (Option.value ~default:[] (Kmap.find_opt k rules_of)))
        magicable;
      finish ~out ~seeds ~adorned:!adorned ~magic_rules:!magic_rules
        ~guarded_rules:!guarded_rules ~copied_rules:!copied
        ~dropped_rules:!dropped
        ~fallback:(Kset.inter fallback reachable)
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
