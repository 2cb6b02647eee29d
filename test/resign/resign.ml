(* Read a snapshot image on stdin and write it to stdout with its
   digest rewritten to match its payload, damaged or not: the magic runs
   through the first newline, the digest follows it and the payload is
   the rest. *)
let () =
  let image = In_channel.input_all stdin in
  let at = String.index image '\n' + 1 in
  let size = String.length (Gdp_logic.Snapshot.digest "" ~pos:0 ~len:0) in
  let from = at + size in
  let sum =
    Gdp_logic.Snapshot.digest image ~pos:from ~len:(String.length image - from)
  in
  set_binary_mode_out stdout true;
  print_string (String.sub image 0 at);
  print_string sum;
  print_string (String.sub image from (String.length image - from))
