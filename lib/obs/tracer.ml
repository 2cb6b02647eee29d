type arg = Int of int | Float of float | Str of string

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  start_ns : int64;
  dur_ns : int64;
  args : (string * arg) list;
}

type event =
  | Span of span
  | Instant of {
      name : string;
      cat : string;
      ts_ns : int64;
      args : (string * arg) list;
    }
  | Sample of { name : string; ts_ns : int64; value : float }

type sink = event -> unit

type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_cat : string;
  f_start : int64;
  f_args : (string * arg) list;
  mutable f_closed : bool;
}

type state = {
  mutable events : event list;  (* newest first *)
  mutable n_spans : int;
  mutable next_id : int;
  mutable stack : frame list;  (* open spans, innermost first *)
  totals : (string, float ref) Hashtbl.t;
  sink : sink option;
  t0 : int64;
}

type t = state option

let now_ns () = Monotonic_clock.now ()
let disabled = None

let create ?sink () =
  Some
    {
      events = [];
      n_spans = 0;
      next_id = 0;
      stack = [];
      totals = Hashtbl.create 16;
      sink;
      t0 = now_ns ();
    }

let enabled = Option.is_some

let dummy_frame =
  { f_id = -1; f_parent = -1; f_name = ""; f_cat = ""; f_start = 0L;
    f_args = []; f_closed = true }

let clock st = Int64.sub (now_ns ()) st.t0

let record st ev =
  st.events <- ev :: st.events;
  (match ev with Span _ -> st.n_spans <- st.n_spans + 1 | _ -> ());
  match st.sink with None -> () | Some f -> f ev

let begin_span t ?(cat = "misc") ?(args = []) name =
  match t with
  | None -> dummy_frame
  | Some st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent =
        match st.stack with [] -> -1 | f :: _ -> f.f_id
      in
      let f =
        { f_id = id; f_parent = parent; f_name = name; f_cat = cat;
          f_start = clock st; f_args = args; f_closed = false }
      in
      st.stack <- f :: st.stack;
      f

(* A span may be closed while an inner one is still open (lazy answer
   streams are abandoned on committed choice), so removal searches the
   whole stack instead of assuming LIFO order. *)
let remove_frame st f =
  st.stack <- List.filter (fun g -> g != f) st.stack

let close_frame st ?(args = []) f =
  if not f.f_closed then begin
    f.f_closed <- true;
    remove_frame st f;
    let now = clock st in
    record st
      (Span
         {
           id = f.f_id;
           parent = f.f_parent;
           name = f.f_name;
           cat = f.f_cat;
           start_ns = f.f_start;
           dur_ns = Int64.sub now f.f_start;
           args = f.f_args @ args;
         })
  end

let end_span t ?args f =
  match t with None -> () | Some st -> close_frame st ?args f

let with_span t ?cat ?args name fn =
  match t with
  | None -> fn ()
  | Some _ ->
      let f = begin_span t ?cat ?args name in
      Fun.protect ~finally:(fun () -> end_span t f) fn

let instant t ?(cat = "misc") ?(args = []) name =
  match t with
  | None -> ()
  | Some st -> record st (Instant { name; cat; ts_ns = clock st; args })

let total st name =
  match Hashtbl.find_opt st.totals name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.add st.totals name r;
      r

let set t name value =
  match t with
  | None -> ()
  | Some st ->
      total st name := value;
      record st (Sample { name; ts_ns = clock st; value })

let add t name n =
  match t with
  | None -> ()
  | Some st ->
      let r = total st name in
      r := !r +. float_of_int n;
      record st (Sample { name; ts_ns = clock st; value = !r })

let finish t =
  match t with
  | None -> ()
  | Some st ->
      (* innermost first, so parents close after their children *)
      List.iter (fun f -> close_frame st f) st.stack

let events t =
  match t with None -> [] | Some st -> List.rev st.events

let spans t =
  match t with
  | None -> []
  | Some st ->
      List.fold_left
        (fun acc ev -> match ev with Span s -> s :: acc | _ -> acc)
        [] st.events

let span_count ?cat t =
  match t with
  | None -> 0
  | Some st -> (
      match cat with
      | None -> st.n_spans
      | Some c ->
          List.fold_left
            (fun n ev ->
              match ev with
              | Span s when String.equal s.cat c -> n + 1
              | _ -> n)
            0 st.events)

let counters t =
  match t with
  | None -> []
  | Some st ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) st.totals []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

