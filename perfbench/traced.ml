(* The traced run: the same seed and inputs as the end-to-end run, but
   each layer's public functions are called in-process and timed from
   outside.  Spans the program already records (the join.psg phases) are read
   back from Hopi_obs.Trace; nothing is added to the program.

   Every workload's traced run measures every layer on the workload's own
   corpus, frames and op trace: the build pipeline, the sharded read path
   and live maintenance.  The end-to-end figures a workload measured
   (passed as options) add the coverage lines of its own path. *)

open Common
module Trace = Hopi_obs.Trace
module Pool = Hopi_util.Pool
module Config = Hopi_core.Config
module Hopi = Hopi_core.Hopi
module Cover = Hopi_twohop.Cover
module Pager = Hopi_storage.Pager
module Cover_store = Hopi_storage.Cover_store
module Partitioning = Hopi_collection.Partitioning
module Router = Hopi_serve.Router
module Snapshot = Hopi_serve.Snapshot
module Generation = Hopi_serve.Generation
module Label_cache = Hopi_serve.Label_cache

let mib x = float_of_int x /. (1024.0 *. 1024.0)
let ms x = x *. 1e3
let us x = x *. 1e6

let timed_list () =
  let xs = ref [] in
  let time f =
    let r, dt = time f in
    xs := dt :: !xs;
    r
  in
  (time, fun () -> Array.of_list !xs)

let rec find_span name sp =
  if sp.Trace.name = name then Some sp else List.find_map (find_span name) (Trace.children sp)

let span_s root name =
  match find_span name root with Some sp -> float_of_int sp.Trace.duration_ns /. 1e9 | None -> nan

(* Writes [cover] the way [hopi build --store] does: a fresh page file,
   bulk-loaded LIN/LOUT tables, one commit. *)
let write_store cover path =
  let pager = Pager.create ~pool_pages:512 ~fsync:false (Pager.File path) in
  let store = Cover_store.create pager in
  Cover_store.bulk_load_cover store cover;
  Cover_store.save store;
  let pages = (Pager.stats pager).Pager.disk_writes in
  Pager.close pager;
  pages

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (k, v) -> Printf.printf "  %-36s %14.4f\n" k v) rows

(* The sum of disjoint in-process rows against an end-to-end figure of
   the same run, when the workload measured that figure. *)
let coverage label parts = function
  | None -> ()
  | Some whole ->
    let sum = List.fold_left ( +. ) 0.0 parts in
    Printf.printf "  coverage %-27s %13.1f%%  (%.4f of %.4f)\n" label (100.0 *. sum /. whole) sum whole

let print_e2e name = Option.iter (Printf.printf "  end-to-end %-25s %14.4f\n" name)

(* {1 Build}

   The build [hopi build] runs (Hopi.create = Build.build, then
   Hopi.to_store and a save), composed from the same public calls in the
   same order, on a pool of the same size and under the same budget. *)

let build ~corpus ~store ~spill_dir ~e2e_build_s =
  let cfg = { Config.default with jobs = build_jobs; build_mem_mb = Some build_mem_mb } in
  let max_connections =
    match cfg.Config.partitioner with Config.Closure_aware n -> n | _ -> assert false
  in
  Trace.reset ();
  let c, load_s = time (fun () -> load_corpus corpus) in
  Pool.with_pool ~jobs:cfg.Config.jobs (fun pool ->
      let partitioning, partition_s =
        time (fun () ->
            let dg = Hopi_partition.Weights.doc_graph c cfg.Config.weight_scheme in
            Hopi_partition.Closure_partitioner.partition ~seed:cfg.Config.seed ~max_connections c dg)
      in
      let preselect = Hashtbl.create 16 in
      List.iter
        (fun (_, v) ->
          let p = Partitioning.part_of_element partitioning c v in
          let old = Option.value ~default:[] (Hashtbl.find_opt preselect p) in
          Hashtbl.replace preselect p (v :: old))
        partitioning.Partitioning.cross_links;
      let (final, covers, closure_connections), cover_s =
        time (fun () ->
            let results =
              Pool.parallel_map pool partitioning.Partitioning.n (fun p ->
                  let g = Partitioning.element_subgraph partitioning c p in
                  let clo = Hopi_graph.Closure.compute g in
                  let preselect_centers = Option.value ~default:[] (Hashtbl.find_opt preselect p) in
                  let cover, _ = Hopi_twohop.Builder.build ~preselect_centers clo in
                  (cover, Hopi_graph.Closure.n_connections clo))
            in
            let final = Cover.create ~initial:(Collection.n_elements c) () in
            Array.iter (fun (cov, _) -> Cover.union_into ~dst:final cov) results;
            (final, Array.map fst results, Array.fold_left (fun n (_, k) -> n + k) 0 results))
      in
      let spill = Hopi_storage.Spill.settings ~dir:spill_dir ~budget_bytes:(build_mem_mb * 1024 * 1024) () in
      let stats, join_s =
        time (fun () ->
            Trace.with_span "perfbench.join" (fun () ->
                Hopi_core.Join_psg.join ~pool ~spill c partitioning
                  ~partition_cover:(fun p -> covers.(p)) ~final))
      in
      let root =
        match List.find_opt (fun sp -> sp.Trace.name = "perfbench.join") (Trace.roots ()) with
        | Some sp -> sp
        | None -> failwith "traced build: join span missing"
      in
      let pages, store_write_s = time (fun () -> write_store final store) in
      let rows =
        [ ("collection.load_s", load_s); ("partition.partition_s", partition_s);
          ("twohop.cover_s", cover_s); ("core.join_s", join_s);
          ("core.join.hbar_s", span_s root "join.psg.hbar");
          ("core.join.sort_s", span_s root "join.psg.sort");
          ("core.join.merge_s", span_s root "join.psg.merge");
          ("core.join.bulk_s", span_s root "join.psg.bulk");
          ("storage.store_write_s", store_write_s) ]
      in
      let counts =
        [ ("partition.cross_links", float_of_int (List.length partitioning.Partitioning.cross_links));
          ("twohop.closure_connections", float_of_int closure_connections);
          ("storage.spill_mb", mib stats.Hopi_core.Join_psg.spilled_bytes);
          ("core.join_entries", float_of_int stats.Hopi_core.Join_psg.entries_added);
          ("storage.pages_written", float_of_int pages) ]
      in
      print_table "build layers (s)" rows;
      print_table "build counts" counts;
      print_e2e "hopi build wall (s)" e2e_build_s;
      coverage "load+partition+cover+join+write"
        [ load_s; partition_s; cover_s; join_s; store_write_s ] e2e_build_s;
      rows @ counts)

(* {1 Sharded read path} *)

(* The first [n] frames of the end-to-end reader's stream. *)
let frames_of ~seed c ~n =
  let stream = frame_stream ~seed ~conn:0 c in
  List.init n (fun _ -> stream ())

let cache_lookups () = (Hopi_obs.Counter.get (Label_cache.hits ()), Hopi_obs.Counter.get (Label_cache.misses ()))

let pool_misses () = Hopi_obs.Counter.get (Hopi_obs.Registry.counter "hopi_storage_shared_pool_misses_total")

(* Evaluates frames through Batch on [engine], timing each frame and
   counting label-cache lookups and page-pool misses on the way. *)
let replay_frames ~pool ~engine frames =
  let probe_t = ref [] and expand_t = ref [] in
  let h0, m0 = cache_lookups () and p0 = pool_misses () in
  List.iter
    (fun f ->
      let eng = engine () in
      let (_ : Batch.answer array), dt = time (fun () -> Batch.eval_batch_engine ~pool eng f.queries) in
      if f.probe then probe_t := dt :: !probe_t else expand_t := dt :: !expand_t)
    frames;
  let h1, m1 = cache_lookups () and p1 = pool_misses () in
  (Array.of_list !probe_t, Array.of_list !expand_t, h1 - h0, m1 - m0, p1 - p0)

let hit_pct hits misses = if hits + misses = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int (hits + misses)

(* [single] is an unsharded store of the same corpus (the traced
   build's), for the reach pairs through one Snapshot. *)
let sharded ~corpus ~seed ~frames ~dir ~single ~e2e_probe_us =
  mkdir_p dir;
  let c = load_corpus corpus in
  let split_dir = Filename.concat dir "shards" in
  let st, split_s = time (fun () -> Router.split ~fsync:false ~k:shards ~dir:split_dir c) in
  let router = Router.open_dir ~pool_pages:sharded_pool_pages ~cache_mb split_dir in
  let frames = frames_of ~seed c ~n:frames in
  let result =
    Pool.with_pool ~jobs:serve_jobs (fun pool ->
        let eng = Router.engine router in
        let probe_t, expand_t, hits, misses, pmiss = replay_frames ~pool ~engine:(fun () -> eng) frames in
        let reach_t, reach_calls = timed_list () in
        let desc_t, desc_calls = timed_list () and anc_t, anc_calls = timed_list () in
        let cross = ref 0 in
        List.iter
          (fun f ->
            Array.iter
              (function
                | Batch.Reach (u, v) -> ignore (reach_t (fun () -> Router.connected router u v))
                | Batch.Desc u -> ignore (desc_t (fun () -> Router.descendants router u))
                | Batch.Anc u -> ignore (anc_t (fun () -> Router.ancestors router u))
                | _ -> ())
              f.queries;
            Array.iter
              (function
                | Batch.Reach (u, v) | Batch.Dist (u, v) ->
                  if Router.shard_of router u <> Router.shard_of router v then incr cross
                | _ -> ())
              f.queries)
          frames;
        (probe_t, expand_t, hits, misses, pmiss, reach_calls (), desc_calls (), anc_calls (), !cross))
  in
  Router.close router;
  let probe_t, expand_t, hits, misses, pmiss, reach_calls, desc_calls, anc_calls, cross = result in
  (* the same reach pairs against one unsharded store of the same corpus *)
  let snap = Snapshot.open_file ~pool_pages:sharded_pool_pages ~cache_mb single in
  let snap_t, snap_calls = timed_list () in
  List.iter
    (fun f ->
      Array.iter
        (function Batch.Reach (u, v) -> ignore (snap_t (fun () -> Snapshot.connected snap u v)) | _ -> ())
        f.queries)
    frames;
  Snapshot.close snap;
  let probe_us = us (median probe_t) in
  let rows =
    [ ("serve.batch.probe_frame_us", probe_us);
      ("serve.batch.expand_frame_us", us (median expand_t));
      ("serve.router.reach_us", us (median reach_calls));
      ("serve.router.desc_us", us (median desc_calls));
      ("serve.router.anc_us", us (median anc_calls));
      ("serve.snapshot.reach_us", us (median (snap_calls ()))) ]
  in
  let counts =
    [ ("serve.router.cross_shard_queries", float_of_int cross);
      ("serve.router.routing_pairs", float_of_int st.Router.psg_closure);
      ("serve.label_cache.hit_pct", hit_pct hits misses);
      ("serve.label_cache.lookups", float_of_int (hits + misses));
      ("storage.pool_misses", float_of_int pmiss) ]
  in
  Printf.printf "replayed %d frames; shard-split in-process %.3f s\n" (List.length frames) split_s;
  print_table "sharded read path layers (us)" rows;
  print_table "sharded read path counts" counts;
  print_e2e "client-observed probe p50 (us)" e2e_probe_us;
  Option.iter (fun e -> Printf.printf "  server and socket overhead (end-to-end minus in-process) %8.1f us\n" (e -. probe_us)) e2e_probe_us;
  coverage "probe frame (in-process)" [ probe_us ] e2e_probe_us;
  rows @ counts

(* {1 Live maintenance}

   The op trace and the reader's frames are replayed through Generation
   in-process, in the end-to-end order: each round's applies and its flip,
   then [frames_per_round] frames.  After each flip a store write of the
   same index shows the write's share of the flip. *)

let live ~corpus ~seed ~rounds ~frames_per_round ~dir ~e2e_probe_us ~e2e_flip_ms =
  mkdir_p dir;
  let next_round = op_rounds ~seed (load_corpus corpus) in
  let stream = frame_stream ~seed ~conn:0 (load_corpus corpus) in
  let idx = Hopi.create (load_corpus corpus) in
  let gen =
    Generation.create ~pool_pages:live_pool_pages ~cache_mb ~fsync:false
      ~base:(Filename.concat dir "base.db") idx
  in
  let apply_t = Hashtbl.create 3 in
  let flip_t = ref [] and write_t = ref [] and dirtied = ref [] in
  let probe_t = ref [] and expand_t = ref [] in
  let hits = ref 0 and misses = ref 0 and pmiss = ref 0 and failures = ref 0 in
  Pool.with_pool ~jobs:serve_jobs (fun pool ->
      for _ = 1 to rounds do
        List.iter
          (fun op ->
            match Generation.parse_op op.line with
            | Error _ -> incr failures
            | Ok o ->
              let r, dt = time (fun () -> Generation.apply gen o) in
              (match r with Ok _ -> () | Error _ -> incr failures);
              Hashtbl.replace apply_t op.kind (dt :: Option.value ~default:[] (Hashtbl.find_opt apply_t op.kind)))
          (next_round ());
        let st, dt = time (fun () -> Generation.flip gen) in
        flip_t := dt :: !flip_t;
        dirtied := float_of_int st.Generation.dirtied :: !dirtied;
        let (_ : int), wt =
          time (fun () -> write_store (Hopi.cover (Generation.index gen)) (Filename.concat dir "write.db"))
        in
        write_t := wt :: !write_t;
        let p, e, h, m, pm =
          Generation.with_snapshot gen (fun snap ->
              let eng = Batch.engine_of_snapshot snap in
              replay_frames ~pool ~engine:(fun () -> eng) (List.init frames_per_round (fun _ -> stream ())))
        in
        probe_t := Array.to_list p @ !probe_t;
        expand_t := Array.to_list e @ !expand_t;
        hits := !hits + h;
        misses := !misses + m;
        pmiss := !pmiss + pm
      done);
  Generation.close gen;
  let med l = median (Array.of_list l) in
  let apply_ms k = ms (med (Option.value ~default:[] (Hashtbl.find_opt apply_t k))) in
  let probe_us = us (med !probe_t) in
  let flip_ms = ms (med !flip_t) and write_ms = ms (med !write_t) in
  let rows =
    [ ("core.maint.add_doc_ms", apply_ms Add_doc); ("core.maint.add_link_ms", apply_ms Add_link);
      ("core.maint.del_doc_ms", apply_ms Del_doc); ("serve.generation.flip_ms", flip_ms);
      ("storage.generation_write_ms", write_ms); ("serve.batch.live_probe_frame_us", probe_us);
      ("serve.batch.live_expand_frame_us", us (med !expand_t)) ]
  in
  let counts =
    [ ("serve.generation.dirtied_nodes", med !dirtied);
      ("serve.label_cache.live_hit_pct", hit_pct !hits !misses);
      ("serve.label_cache.live_lookups", float_of_int (!hits + !misses));
      ("storage.live_pool_misses", float_of_int !pmiss) ]
  in
  Printf.printf "replayed %d rounds, %d frames, %d failed ops\n" rounds
    (rounds * frames_per_round) !failures;
  print_table "live maintenance layers" rows;
  print_table "live maintenance counts" counts;
  print_e2e "client-observed flip p50 (ms)" e2e_flip_ms;
  print_e2e "client-observed probe p50 (us)" e2e_probe_us;
  coverage "store write within flip" [ write_ms ] (Some flip_ms);
  coverage "flip (in-process)" [ flip_ms ] e2e_flip_ms;
  coverage "probe frame (in-process)" [ probe_us ] e2e_probe_us;
  (rows @ counts, !failures)
