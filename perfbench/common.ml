(* Inputs, oracle and small helpers shared by the end-to-end load
   generator and the traced run.  Everything here is derived from the
   workload seed, so a seed names one exact set of inputs. *)

module Collection = Hopi_collection.Collection
module Digraph = Hopi_graph.Digraph
module Dblp_gen = Hopi_workload.Dblp_gen
module Splitmix = Hopi_util.Splitmix
module Batch = Hopi_serve.Batch

(* {1 Workload parameters} — recorded in perfbench/README.md *)

let dblp_docs = 300 (* build-dblp *)
let sharded_docs = 350
let live_docs = 300
let build_jobs = 1
let build_mem_mb = 4
let shards = 4
let serve_jobs = 1
let probe_queries = 16 (* per probe frame: alternating reach/dist *)
let expand_every = 5 (* one frame in five is a desc/anc expand frame *)
let round_period_s = 4.0 (* the writer starts a round this often *)
let warmup_rounds = 2 (* serve-live rounds before the timed phase *)
let frames_per_round = 1000 (* serve-live reads after each round's flip *)
let sharded_pool_pages = 4096 (* 16 MiB: the shard stores fit *)
let live_pool_pages = 1024 (* 4 MiB: smaller than the live store *)
let cache_mb = 64

let params =
  [ ("dblp_docs", dblp_docs); ("sharded_docs", sharded_docs); ("live_docs", live_docs);
    ("build_jobs", build_jobs); ("build_mem_mb", build_mem_mb); ("shards", shards);
    ("serve_jobs", serve_jobs); ("sharded_pool_pages", sharded_pool_pages);
    ("live_pool_pages", live_pool_pages); ("cache_mb", cache_mb);
    ("frames_per_round", frames_per_round) ]

(* Splitmix seeds from nearby integers are spread apart first. *)
let mix seed = ((seed * 1_000_003) + 0x5eed) land 0x3fffffff

(* {1 Files} *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* {1 Corpus}

   The citation structure comes from Dblp_gen's own fixed seed; the
   workload seed relabels the documents: structure document [i] is
   written as [pub<perm i>.xml] and every reference to it follows.
   Every seed thus gets an isomorphic corpus, so the work stays
   comparable across seeds, while load order, element ids, partition
   assignment and every query pair change with the seed.  (Drawing the
   structure itself from the seed moved the element-graph closure by up
   to 1.8x between seeds at this size.) *)

type corpus = { cfg : Dblp_gen.config; perm : int array }

let corpus ~seed ~docs =
  let perm = Array.init docs Fun.id in
  Splitmix.shuffle (Splitmix.create (mix seed)) perm;
  { cfg = Dblp_gen.default ~n_docs:docs; perm }

let href = "href=\"pub"

(* The XML of structure document [i], with the target of every
   [href] to [pub<j>] renamed to [pub<perm j>]. *)
let corpus_xml t i =
  let xml = Dblp_gen.document_xml t.cfg i in
  let n = String.length xml and k = String.length href in
  let b = Buffer.create (n + 64) in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub xml !i k = href then begin
      Buffer.add_string b href;
      let j = ref (!i + k) in
      while !j < n && xml.[!j] >= '0' && xml.[!j] <= '9' do incr j done;
      Buffer.add_string b (string_of_int t.perm.(int_of_string (String.sub xml (!i + k) (!j - !i - k))));
      i := !j
    end
    else begin
      Buffer.add_char b xml.[!i];
      incr i
    end
  done;
  Buffer.contents b

let write_corpus ~seed ~docs dir =
  mkdir_p dir;
  let t = corpus ~seed ~docs in
  for i = 0 to docs - 1 do
    write_file (Filename.concat dir (Dblp_gen.doc_name t.perm.(i))) (corpus_xml t i)
  done

(* Loads a corpus directory the way [hopi] does: every .xml file in
   byte order of its name, so element ids match the served index. *)
let load_corpus dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  if files = [] then failwith (Printf.sprintf "no .xml files in %s" dir);
  let c = Collection.create () in
  List.iter
    (fun f ->
      match Collection.add_document_xml c ~name:f (read_file (Filename.concat dir f)) with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "%s: %a" f Hopi_xml.Xml_parser.pp_error e))
    files;
  c

(* {1 Query frames}

   Each connection draws its own frame stream from (seed, connection).
   A probe frame holds [probe_queries] queries alternating [reach] and
   [dist] between uniform corpus elements; an expand frame holds one
   [desc] or [anc] of a document root.  (Over all elements the expand
   latencies split into a fast mode, leaves, and a slow one, and their
   median jumped between the two from run to run.)  [c] is the
   unmodified corpus collection. *)

type frame = { probe : bool; queries : Batch.query array; lines : string list }

let frame_stream ~seed ~conn (c : Collection.t) =
  let n_elements = Collection.n_elements c in
  let roots = Array.of_list (List.map (Collection.doc_root_element c) (Collection.doc_ids c)) in
  let rng = Splitmix.create (mix (seed + (1000 * (conn + 1)))) in
  let pair () =
    let u = Splitmix.int rng n_elements in
    let v = (u + 1 + Splitmix.int rng (n_elements - 1)) mod n_elements in
    (u, v)
  in
  fun () ->
    let queries =
      if Splitmix.int rng expand_every = 0 then
        let u = roots.(Splitmix.int rng (Array.length roots)) in
        [| (if Splitmix.bool rng then Batch.Desc u else Batch.Anc u) |]
      else
        Array.init probe_queries (fun i ->
            let u, v = pair () in
            if i land 1 = 0 then Batch.Reach (u, v) else Batch.Dist (u, v))
    in
    let lines = Array.to_list (Array.map (Format.asprintf "%a" Batch.pp_query) queries) in
    { probe = Array.length queries > 1; queries; lines }

(* {1 Maintenance trace}

   Round [r] inserts two documents [ins<2r>.xml] and [ins<2r+1>.xml]
   (copies of corpus documents under new names, so they cite corpus
   documents), adds a link from an element of each to the root of a
   corpus document, and from round 1 on deletes the two documents of
   round [r-1].  Nothing ever links into an inserted document, so every
   deletion separates the document graph (the Theorem-2 fast path), and
   the collection returns to the same size every round.  A flip follows
   every round. *)

type op_kind = Add_doc | Add_link | Del_doc

type op = { kind : op_kind; line : string }

(* Applies an op line to a bare collection — the oracle's own copy. *)
let apply_to_collection c line =
  match String.split_on_char ' ' line with
  | "add-doc" :: name :: _ ->
    let prefix = String.length "add-doc " + String.length name + 1 in
    let xml = String.sub line prefix (String.length line - prefix) in
    (match Collection.add_document_xml c ~name xml with
     | Ok _ -> ()
     | Error _ -> failwith ("oracle: bad document in " ^ name))
  | [ "add-link"; u; v ] -> ignore (Collection.add_link c (int_of_string u) (int_of_string v))
  | [ "del-doc"; name ] -> (
    match Collection.find_doc c name with
    | Some d -> Collection.remove_document c d
    | None -> failwith ("oracle: no document " ^ name))
  | _ -> failwith ("oracle: unknown op " ^ line)

(* [op_rounds ~seed sim] returns a generator of successive rounds.  [sim]
   is a private copy of the corpus collection; the generator applies its
   own ops to it, which tells it the ids the server will give the
   inserted elements.  Documents and link targets are drawn in structure
   space and relabelled like the corpus, so every seed gets an
   isomorphic trace: the same work under other names and ids. *)
let op_rounds ~seed (sim : Collection.t) =
  let t = corpus ~seed ~docs:(Collection.n_docs sim) in
  let docs = Array.length t.perm in
  let root d = Collection.doc_root_element sim (Option.get (Collection.find_doc sim (Dblp_gen.doc_name t.perm.(d)))) in
  let round = ref 0 in
  fun () ->
    let r = !round in
    incr round;
    let rng = Splitmix.create (mix (77 + (r * 104_729))) in
    let emit kind line =
      apply_to_collection sim line;
      { kind; line }
    in
    let add_doc k =
      let xml = corpus_xml t (Splitmix.int rng docs) in
      emit Add_doc
        (Printf.sprintf "add-doc ins%d.xml %s" k (String.map (fun ch -> if ch = '\n' then ' ' else ch) xml))
    in
    let add_link k =
      let d = Option.get (Collection.find_doc sim (Printf.sprintf "ins%d.xml" k)) in
      let els = Array.of_list (List.sort compare (Collection.elements_of_doc sim d)) in
      let rec pick () =
        let u = els.(Splitmix.int rng (Array.length els)) in
        let v = root (Splitmix.int rng docs) in
        if Digraph.mem_edge (Collection.element_graph sim) u v then pick () else (u, v)
      in
      let u, v = pick () in
      emit Add_link (Printf.sprintf "add-link %d %d" u v)
    in
    let del k = emit Del_doc (Printf.sprintf "del-doc ins%d.xml" k) in
    let a = add_doc (2 * r) in
    let l1 = add_link (2 * r) in
    let b = add_doc ((2 * r) + 1) in
    let l2 = add_link ((2 * r) + 1) in
    if r = 0 then [ a; l1; b; l2 ] else [ a; l1; b; l2; del ((2 * r) - 2); del ((2 * r) - 1) ]

(* {1 Oracle} — BFS over the element graph, written here independently of
   the index.  Reachable sets are memoised per source for one graph
   state; [reset] must be called after the collection changes. *)

module Oracle = struct
  type t = {
    c : Collection.t;
    mutable size : int;  (* one past the largest element id *)
    fwd : (int, Bytes.t * int) Hashtbl.t;  (* reached set as a bitmap, and its size *)
    bwd : (int, Bytes.t * int) Hashtbl.t;
  }

  let size_of c =
    let m = ref (-1) in
    Digraph.iter_nodes (Collection.element_graph c) (fun x -> if x > !m then m := x);
    !m + 1

  let create c = { c; size = size_of c; fwd = Hashtbl.create 256; bwd = Hashtbl.create 64 }

  let reset t =
    Hashtbl.reset t.fwd;
    Hashtbl.reset t.bwd;
    t.size <- size_of t.c

  let known t u = Digraph.mem_node (Collection.element_graph t.c) u

  let bfs next g size u =
    let seen = Bytes.make size '\000' and queue = Array.make size 0 in
    Bytes.set seen u '\001';
    queue.(0) <- u;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      next g queue.(!head) (fun y ->
          if Bytes.get seen y = '\000' then begin
            Bytes.set seen y '\001';
            queue.(!tail) <- y;
            incr tail
          end);
      incr head
    done;
    (seen, !tail)

  let memo tbl next t u =
    match Hashtbl.find_opt tbl u with
    | Some s -> s
    | None ->
      let s = bfs next (Collection.element_graph t.c) t.size u in
      Hashtbl.replace tbl u s;
      s

  let forward t u = memo t.fwd Digraph.iter_succ t u
  let backward t u = memo t.bwd Digraph.iter_pred t u

  let reaches t u v = known t u && known t v && Bytes.get (fst (forward t u)) v <> '\000'

  (* The nodes [u] reaches, itself excluded, in id order. *)
  let reached t u =
    let seen, _ = forward t u in
    List.filter (fun x -> x <> u && Bytes.get seen x <> '\000') (List.init t.size Fun.id)

  (* The expected rendered answer of a query, with the served semantics:
     unknown ids are unreachable with empty sets; plain covers answer
     distance 0 for every reachable pair. *)
  let expected t = function
    | Batch.Reach (u, v) -> if reaches t u v then "true" else "false"
    | Batch.Dist (u, v) -> if reaches t u v then "0" else "unreachable"
    | Batch.Desc u -> string_of_int (if known t u then snd (forward t u) else 0)
    | Batch.Anc u -> string_of_int (if known t u then snd (backward t u) else 0)
    | Batch.Path _ -> invalid_arg "oracle: path queries are not generated"
end

(* Compares one frame's answers with the oracle; returns the number of
   mismatching answers (a missing or extra answer counts as one). *)
let check_frame oracle (f : frame) answers =
  let n = Array.length f.queries in
  let got = Array.of_list answers in
  let bad = ref (abs (n - Array.length got)) in
  Array.iteri
    (fun i q -> if i < Array.length got && got.(i) <> Oracle.expected oracle q then incr bad)
    f.queries;
  !bad

(* {1 Statistics and output} *)

let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* Seconds on the monotonic clock. *)
let mono () = Int64.to_float (Hopi_util.Timer.now_ns ()) /. 1e9

let time = Hopi_util.Timer.time

(* One flat JSON object per line of numbers. *)
type value = F of float | I of int

let json fields =
  let v = function
    | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
    | I i -> string_of_int i
  in
  "{" ^ String.concat ", " (List.map (fun (k, x) -> Printf.sprintf "%S: %s" k (v x)) fields) ^ "}"
