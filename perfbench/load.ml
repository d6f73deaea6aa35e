(* The end-to-end load generator: closed loops over Unix-socket
   connections to a running [hopi serve], through Hopi_serve.Client.
   After the timed phase it checks every answer against the BFS oracle.

   Besides the client-observed latency of every request it records the
   server's CPU time over the request (see [server_cpu]).  Requests never
   overlap: one thread sends them, one at a time, so that CPU time is the
   request's alone. *)

open Common
module Client = Hopi_serve.Client

(* The server's CPU time so far, in seconds: the on-CPU time of all its
   threads, the first field of /proc/PID/task/*/schedstat (nanoseconds).
   Time the hypervisor steals from a guest is not on-CPU time, so this
   cost holds still while a shared host's load moves the wall clock:
   over five seeds the client-observed probe p50 spread 0.42
   (IQR/median) on a busy host. *)
let server_cpu pid () =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let ns =
    Array.fold_left
      (fun acc tid ->
        let path = Filename.concat (Filename.concat dir tid) "schedstat" in
        match In_channel.with_open_text path In_channel.input_line with
        | Some line -> acc + int_of_string (List.hd (String.split_on_char ' ' line))
        | None | (exception Sys_error _) -> acc)
      0 (Sys.readdir dir)
  in
  float_of_int ns /. 1e9

(* What a reader keeps per frame during the timed phase.  Frames are not
   kept: checking regenerates them from the same stream, which keeps the
   load generator's heap (and its collector's share of the two cores)
   small. *)
type reply = {
  probe : bool;
  done_at : float;
  latency : float;
  cpu : float;  (* the server's CPU time over the request *)
  epoch : int;
  answers : string option;
}

(* A closed loop on connection [cl]: sends the next frame only after the
   previous reply, until [stop ()] holds.  Replies are returned in send
   order. *)
let read_frames cl ~stream ~stop ~cpu =
  let acc = ref [] in
  while not (stop ()) do
    let f = stream () in
    let c0 = cpu () in
    let t0 = mono () in
    let r = Client.request cl f.lines in
    let done_at = mono () in
    let c1 = cpu () in
    let epoch, answers =
      match r with
      | Ok (Client.Answers (e, lines)) -> (e, Some (String.concat "\n" lines))
      | _ -> (-1, None)
    in
    acc := { probe = f.probe; done_at; latency = done_at -. t0; cpu = c1 -. c0; epoch; answers } :: !acc
  done;
  List.rev !acc

(* Pairs each reply with its frame, regenerated from a fresh copy of the
   stream that produced it. *)
let with_frames stream replies = List.rev (List.rev_map (fun r -> (stream (), r)) replies)

(* One maintenance round on connection [cl]: its ops, then a flip.
   Returns the applies as (latency, server CPU, acknowledged) and the
   flip as (generation now live, latency, server CPU). *)
let write_round cl ~cpu ops =
  let timed cmd =
    let c0 = cpu () in
    let t0 = mono () in
    let r = Client.control cl cmd in
    let dt = mono () -. t0 in
    (r, dt, cpu () -. c0)
  in
  let applies =
    List.map
      (fun op ->
        let r, dt, c = timed ("apply " ^ op.line) in
        let ok =
          match r with
          | Ok (Client.Answers (_, [ msg ])) -> String.length msg >= 3 && String.sub msg 0 3 = "ok:"
          | _ -> false
        in
        (dt, c, ok))
      ops
  in
  let r, dt, c = timed "flip" in
  let gen =
    match r with
    | Ok (Client.Answers (_, [ msg ])) -> (
      try Scanf.sscanf msg "generation %d live" (fun g -> g) with _ -> -1)
    | _ -> -1
  in
  (applies, (gen, dt, c))

let us x = x *. 1e6

(* The timed phase is cut into whole slices by reply time, and each
   figure is the median of its per-slice values, so a stretch of a
   slowed-down host moves it only if it covers half the run.  In
   serve-live a slice is one round period: one flip and the re-warming
   reads after it. *)
let slices ~slice_s ~t0 ~elapsed replies =
  let n = max 1 (int_of_float (elapsed /. slice_s)) in
  let buckets = Array.make n [] in
  List.iter
    (fun r ->
      let i = Float.to_int (Float.floor ((r.done_at -. t0) /. slice_s)) in
      if i >= 0 && i < n then buckets.(i) <- r :: buckets.(i))
    replies;
  (buckets, Float.min slice_s elapsed)

let per_slice buckets f = median (Array.map f buckets)

let latencies probe rs =
  Array.of_list (List.filter_map (fun r -> if r.probe = probe then Some r.latency else None) rs)

let answered rs =
  List.fold_left
    (fun n r -> if r.answers = None then n else n + if r.probe then probe_queries else 1)
    0 rs

let cpu_ms probe rs =
  1e3 *. median (Array.of_list (List.filter_map (fun r -> if r.probe = probe then Some r.cpu else None) rs))

let latency_fields ~slice_s ~t0 ~elapsed replies =
  let buckets, width = slices ~slice_s ~t0 ~elapsed replies in
  let show name f = Printf.printf "per slice %s: %s\n" name (String.concat " " (Array.to_list (Array.map (fun rs -> Printf.sprintf "%.0f" (f rs)) buckets))) in
  show "qps" (fun rs -> float_of_int (answered rs) /. width);
  show "probe p50 us" (fun rs -> us (median (latencies true rs)));
  [ ("slices", I (Array.length buckets));
    ("probe_frames", I (Array.length (latencies true replies)));
    ("expand_frames", I (Array.length (latencies false replies)));
    ("qps", F (per_slice buckets (fun rs -> float_of_int (answered rs) /. width)));
    ("probe_p50_us", F (per_slice buckets (fun rs -> us (median (latencies true rs)))));
    ("probe_p95_us", F (per_slice buckets (fun rs -> us (percentile (latencies true rs) 0.95))));
    ("expand_p50_us", F (per_slice buckets (fun rs -> us (median (latencies false rs)))));
    ("probe_cpu_ms", F (cpu_ms true replies)); ("expand_cpu_ms", F (cpu_ms false replies)) ]

let queries_of replies =
  List.fold_left (fun n r -> n + if r.probe then probe_queries else 1) 0 replies

let failed_queries replies =
  List.fold_left
    (fun n r -> if r.answers = None then n + if r.probe then probe_queries else 1 else n)
    0 replies

(* Checks (frame, reply) pairs against [oracle]; returns (mismatches,
   reachable pairs, unreachable pairs) over the reach/dist queries. *)
let check oracle pairs =
  List.fold_left
    (fun (bad, yes, no) ((f : frame), r) ->
      match r.answers with
      | None -> (bad, yes, no)
      | Some answers ->
        let yes, no =
          Array.fold_left
            (fun (y, n) q ->
              match q with
              | Batch.Reach (u, v) | Batch.Dist (u, v) ->
                if Oracle.reaches oracle u v then (y + 1, n) else (y, n + 1)
              | _ -> (y, n))
            (yes, no) f.queries
        in
        (bad + check_frame oracle f (String.split_on_char '\n' answers), yes, no))
    (0, 0, 0) pairs

(* Flips the first answer of the first answered probe frame: a run fed
   this doctored reply must fail its check. *)
let doctor pairs =
  let flip = function "true" -> "false" | "false" -> "true" | "0" -> "unreachable" | _ -> "0" in
  let rec go = function
    | [] -> []
    | ((f : frame), ({ answers = Some a; _ } as r)) :: tl when f.probe ->
      let first, rest =
        match String.index_opt a '\n' with
        | Some i -> (String.sub a 0 i, String.sub a i (String.length a - i))
        | None -> (a, "")
      in
      (f, { r with answers = Some (flip first ^ rest) }) :: tl
    | p :: tl -> p :: go tl
  in
  go pairs

let sharded ~socket ~server_pid ~seed ~seconds ~corpus ~doctored =
  let c = load_corpus corpus in
  let t0 = mono () in
  let deadline = t0 +. seconds in
  let stop () = mono () >= deadline in
  let cl = Client.connect_unix socket in
  let replies = read_frames cl ~stream:(frame_stream ~seed ~conn:0 c) ~stop ~cpu:(server_cpu server_pid) in
  Client.close cl;
  let elapsed = mono () -. t0 in
  let pairs = with_frames (frame_stream ~seed ~conn:0 c) replies in
  let pairs = if doctored then doctor pairs else pairs in
  let queries = queries_of replies in
  let failed = failed_queries replies in
  let bad, yes, no = check (Oracle.create c) pairs in
  [ ("attempted", I queries); ("failed", I failed); ("mismatches", I bad);
    ("reachable_pairs", I yes); ("unreachable_pairs", I no) ]
  @ latency_fields ~slice_s:2.0 ~t0 ~elapsed replies

let live ~socket ~server_pid ~seed ~seconds ~corpus ~doctored =
  let c = load_corpus corpus in
  let next_round = op_rounds ~seed (load_corpus corpus) in
  let stream = frame_stream ~seed ~conn:0 c in
  let cpu = server_cpu server_pid in
  let rd = Client.connect_unix socket and wr = Client.connect_unix socket in
  (* the first rounds run before the timed phase: the index grows over
     them before it settles (per-slice qps fell from ~25k to ~15k) *)
  let timed_rounds = max 1 (Float.to_int (Float.ceil (seconds /. round_period_s))) in
  let start = mono () in
  let t0 = start +. (float_of_int warmup_rounds *. round_period_s) in
  (* Round r starts [r * round_period_s] after the first (at once if the
     previous one ran late): its ops and flip, then [frames_per_round]
     reads.  Every run thus does the same work, whatever the host's
     speed; the server's memory grows with both flips and reads. *)
  let log = ref [] in
  for r = 0 to warmup_rounds + timed_rounds - 1 do
    let wait = start +. (float_of_int r *. round_period_s) -. mono () in
    if wait > 0.0 then Unix.sleepf wait;
    let ops = next_round () in
    let applies, flip = write_round wr ~cpu ops in
    let sent = ref 0 in
    let stop () = if !sent = frames_per_round then true else (incr sent; false) in
    log := (ops, applies, flip, read_frames rd ~stream ~stop ~cpu) :: !log
  done;
  let log = List.rev !log in
  Client.close rd;
  Client.close wr;
  let elapsed = mono () -. t0 in
  let timed = List.filteri (fun r _ -> r >= warmup_rounds) log in
  let replies = List.concat_map (fun (_, _, _, rs) -> rs) log in
  let queries = queries_of replies in
  let failed_q = failed_queries replies in
  (* An apply figure is the mean over every acknowledged apply of the
     timed rounds: the rounds differ in their mix (one round's mean CPU
     was 14 ms, another's 40 ms), but every run applies the same ops, so
     the mean holds still where a median over rounds did not.  A flip
     figure is the median over the timed rounds' flips. *)
  let timed_applies pick =
    let xs =
      List.concat_map
        (fun (_, applies, _, _) -> List.filter_map (fun (dt, c, ok) -> if ok then Some (pick dt c) else None) applies)
        timed
    in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  List.iter
    (fun (ops, applies, (_, _, flip_cpu), _) ->
      Printf.printf "timed round, server CPU ms: flip %.1f; %s\n" (1e3 *. flip_cpu)
        (String.concat " "
           (List.map2
              (fun op (_, c, _) -> Printf.sprintf "%s %.1f" (List.hd (String.split_on_char ' ' op.line)) (1e3 *. c))
              ops applies)))
    timed;
  let timed_flips pick = median (Array.of_list (List.map (fun (_, _, (_, dt, c), _) -> pick dt c) timed)) in
  let wall dt _ = dt and cpu_of _ c = c in
  let failed_applies =
    List.fold_left (fun n (_, applies, _, _) -> n + List.length (List.filter (fun (_, _, ok) -> not ok) applies)) 0 log
  in
  let rounds = Array.of_list (List.map (fun (ops, _, _, _) -> ops) log) in
  (* a flip after round r must publish generation r + 1 *)
  let failed_flips = List.length (List.filteri (fun r (_, _, (g, _, _), _) -> g <> r + 1) log) in
  (* oracle: replay the op prefix generation by generation on a private
     copy of the collection and check every reply of that generation *)
  let oracle_c = load_corpus corpus in
  let oracle = Oracle.create oracle_c in
  let by_epoch = Hashtbl.create 16 in
  List.iter
    (fun ((_, r) as p) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_epoch r.epoch) in
      Hashtbl.replace by_epoch r.epoch (p :: prev))
    (with_frames (frame_stream ~seed ~conn:0 c) replies);
  let bad = ref 0 and yes = ref 0 and no = ref 0 and checked = ref 0 in
  for g = 0 to Array.length rounds do
    if g > 0 then begin
      List.iter (fun op -> apply_to_collection oracle_c op.line) rounds.(g - 1);
      Oracle.reset oracle
    end;
    let replies = Option.value ~default:[] (Hashtbl.find_opt by_epoch g) in
    let replies = if doctored then doctor replies else replies in
    checked := !checked + List.length replies;
    let b, y, n = check oracle replies in
    bad := !bad + b;
    yes := !yes + y;
    no := !no + n
  done;
  (* replies carrying an epoch that no flip published cannot be checked *)
  let unchecked =
    Hashtbl.fold
      (fun e ss n -> if e < 0 || e > Array.length rounds then n + List.length ss else n)
      by_epoch 0
  in
  let applies = List.fold_left (fun n (ops, _, _, _) -> n + List.length ops) 0 log
  and flips = List.length log in
  [ ("attempted", I (queries + applies + flips));
    ("failed", I (failed_q + failed_applies + failed_flips));
    ("queries", I queries); ("queries_failed", I failed_q);
    ("applies", I applies); ("applies_failed", I failed_applies);
    ("flips", I flips); ("flips_failed", I failed_flips);
    ("mismatches", I (!bad + unchecked));
    ("reachable_pairs", I !yes); ("unreachable_pairs", I !no);
    ("generations_checked", I (Array.length rounds + 1)); ("frames_checked", I !checked);
    ("apply_ms", F (1e3 *. timed_applies wall)); ("apply_cpu_ms", F (1e3 *. timed_applies cpu_of));
    ("flip_p50_ms", F (1e3 *. timed_flips wall)); ("flip_cpu_ms", F (1e3 *. timed_flips cpu_of)) ]
  @ latency_fields ~slice_s:round_period_s ~t0 ~elapsed replies
