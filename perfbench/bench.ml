(* perfbench's in-process half, driven by perfbench/run.py:

     bench.exe params
     bench.exe corpus --seed N --docs D --out DIR
     bench.exe load --workload serve-sharded|serve-live --socket PATH --server-pid PID
                    --seed N --seconds S --corpus DIR [--doctor]
     bench.exe check-store --store FILE --corpus DIR --seed N [--doctor]
     bench.exe trace --corpus DIR --seed N --dir DIR --spill-dir DIR
                     --frames N --rounds R --frames-per-round F
                     [--e2e-build-s X] [--e2e-sharded-probe-us X]
                     [--e2e-live-probe-us X] [--e2e-flip-ms X]

   [trace] runs every layer of the traced run on one workload's inputs
   (see traced.ml) and writes the traced build's store to DIR/traced.db.

   Every command ends with one line "RESULT {json}". *)

open Perfbench
open Common

let args = Hashtbl.create 16

let flags = Hashtbl.create 4

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing --%s" k)

let int_arg k = int_of_string (arg k)

let float_arg k = float_of_string (arg k)

let float_opt k = Option.map float_of_string (Hashtbl.find_opt args k)

let result fields = print_endline ("RESULT " ^ json fields)

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then begin
    prerr_endline "usage: bench.exe COMMAND [--key value ...]";
    exit 2
  end;
  let i = ref 2 in
  while !i < Array.length argv do
    let a = argv.(!i) in
    if String.length a > 2 && String.sub a 0 2 = "--" then begin
      let k = String.sub a 2 (String.length a - 2) in
      if !i + 1 < Array.length argv
         && not (String.length argv.(!i + 1) > 2 && String.sub argv.(!i + 1) 0 2 = "--")
      then begin
        Hashtbl.replace args k argv.(!i + 1);
        i := !i + 2
      end
      else begin
        Hashtbl.replace flags k ();
        incr i
      end
    end
    else failwith ("unexpected argument " ^ a)
  done;
  let doctored = Hashtbl.mem flags "doctor" in
  match argv.(1) with
  | "params" -> result (List.map (fun (k, v) -> (k, I v)) params)
  | "corpus" -> write_corpus ~seed:(int_arg "seed") ~docs:(int_arg "docs") (arg "out"); result []
  | "load" ->
    let run =
      match arg "workload" with
      | "serve-sharded" -> Load.sharded
      | "serve-live" -> Load.live
      | w -> failwith ("load: unknown workload " ^ w)
    in
    result
      (run ~socket:(arg "socket") ~server_pid:(int_arg "server-pid") ~seed:(int_arg "seed")
         ~seconds:(float_arg "seconds")
         ~corpus:(arg "corpus") ~doctored)
  | "check-store" ->
    let r = Store_check.run ~store:(arg "store") ~corpus:(arg "corpus") ~seed:(int_arg "seed") ~doctored in
    result
      [ ("pairs", I r.Store_check.pairs); ("reachable_pairs", I r.reachable);
        ("unreachable_pairs", I r.unreachable); ("mismatches", I r.mismatches) ]
  | "trace" ->
    let corpus = arg "corpus" and seed = int_arg "seed" and dir = arg "dir" in
    mkdir_p dir;
    let store = Filename.concat dir "traced.db" in
    let build =
      Traced.build ~corpus ~store ~spill_dir:(arg "spill-dir") ~e2e_build_s:(float_opt "e2e-build-s")
    in
    let check = Store_check.run ~store ~corpus ~seed ~doctored:false in
    let sharded =
      Traced.sharded ~corpus ~seed ~frames:(int_arg "frames") ~dir ~single:store
        ~e2e_probe_us:(float_opt "e2e-sharded-probe-us")
    in
    let live, failures =
      Traced.live ~corpus ~seed ~rounds:(int_arg "rounds") ~frames_per_round:(int_arg "frames-per-round")
        ~dir ~e2e_probe_us:(float_opt "e2e-live-probe-us") ~e2e_flip_ms:(float_opt "e2e-flip-ms")
    in
    result
      (("failed_ops", I failures) :: ("mismatches", I check.Store_check.mismatches)
      :: List.map (fun (k, v) -> (k, F v)) (build @ sharded @ live))
  | c -> failwith ("unknown command " ^ c)
