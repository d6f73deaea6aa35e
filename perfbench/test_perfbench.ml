(* The benchmark's own checks: the BFS oracle against a hand-computed
   corpus, and that a doctored answer or a corrupted store fails a run. *)

open Perfbench
open Common

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let fresh_dir name =
  let d = Filename.concat (Sys.getcwd ()) name in
  if Sys.file_exists d then Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  mkdir_p d;
  d

(* Element ids follow load order: a.xml 0 <a>, 1 <b id=x>, 2 <c>;
   b.xml 3 <p>, 4 <q>; c.xml 5 <z>.  Edges: the tree edges 0->1, 0->2,
   3->4, and the links 1->3 (x to b.xml's root) and 5->1 (z to a.xml#x). *)
let tiny_corpus () =
  let d = fresh_dir "tiny_corpus" in
  write_file (Filename.concat d "a.xml") {|<a id="r"><b id="x" xlink:href="b.xml#r"/><c/></a>|};
  write_file (Filename.concat d "b.xml") {|<p id="r"><q/></p>|};
  write_file (Filename.concat d "c.xml") {|<z id="r" xlink:href="a.xml#x"/>|};
  d

let test_oracle () =
  let oracle = Oracle.create (load_corpus (tiny_corpus ())) in
  List.iter
    (fun (q, want) -> checks (Format.asprintf "%a" Batch.pp_query q) want (Oracle.expected oracle q))
    Batch.
      [ (Reach (0, 4), "true"); (Reach (5, 4), "true"); (Reach (2, 3), "false");
        (Reach (4, 0), "false"); (Reach (0, 99), "false"); (Dist (5, 3), "0");
        (Dist (3, 5), "unreachable"); (Desc 0, "5"); (Desc 2, "1"); (Desc 5, "4");
        (Anc 4, "5"); (Anc 5, "1"); (Desc 99, "0") ]

let test_doctored_answer () =
  let oracle = Oracle.create (load_corpus (tiny_corpus ())) in
  let frame =
    { probe = true; queries = [| Batch.Reach (0, 4); Batch.Dist (2, 3) |]; lines = [] }
  in
  checki "served answers pass" 0 (check_frame oracle frame [ "true"; "unreachable" ]);
  checki "a flipped answer fails" 1 (check_frame oracle frame [ "false"; "unreachable" ]);
  checki "a missing answer fails" 1 (check_frame oracle frame [ "true" ]);
  let pairs =
    [ (frame, { Load.probe = true; done_at = 0.0; latency = 0.0; cpu = 0.0; epoch = 0;
          answers = Some "true\nunreachable" }) ]
  in
  let bad, _, _ = Load.check oracle pairs in
  checki "run as served" 0 bad;
  let bad, _, _ = Load.check oracle (Load.doctor pairs) in
  checki "run with a doctored reply" 1 bad

let test_corrupted_store () =
  let corpus = tiny_corpus () in
  let store = Filename.concat (fresh_dir "tiny_store") "store.db" in
  let idx = Hopi_core.Hopi.create (load_corpus corpus) in
  ignore (Traced.write_store (Hopi_core.Hopi.cover idx) store);
  let check () = (Store_check.run ~store ~corpus ~seed:1 ~doctored:false).Store_check.mismatches in
  checki "written store matches BFS" 0 (check ());
  (* flip one byte in every page *)
  let fd = Unix.openfile store [ Unix.O_RDWR ] 0 in
  let pages = (Unix.fstat fd).Unix.st_size / 4096 in
  for p = 0 to pages - 1 do
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd ((p * 4096) + 100) Unix.SEEK_SET);
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    ignore (Unix.lseek fd ((p * 4096) + 100) Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1)
  done;
  Unix.close fd;
  Alcotest.(check bool) "corrupted store fails" true (check () > 0)

let () =
  Alcotest.run "perfbench"
    [ ( "oracle",
        [ Alcotest.test_case "hand-computed tiny corpus" `Quick test_oracle;
          Alcotest.test_case "a doctored answer fails the check" `Quick test_doctored_answer;
          Alcotest.test_case "a corrupted store fails the check" `Quick test_corrupted_store ] ) ]
