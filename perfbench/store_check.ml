(* The build-dblp store check: a seeded sample of pairs read from the
   written store, compared with BFS.  Half the sources are paired with a
   node they reach (when they reach any other), half with a uniform
   node, so both outcomes occur. *)

open Common
module S = Hopi_storage

type t = { pairs : int; reachable : int; unreachable : int; mismatches : int }

let pairs = 2000

let run ~store ~corpus ~seed ~doctored =
  let c = load_corpus corpus in
  let oracle = Oracle.create c in
  let n = Collection.n_elements c in
  let rng = Splitmix.create (mix (seed + 4242)) in
  match S.Pager.open_existing store with
  | exception S.Storage_error.Storage_error e ->
    Printf.printf "store %s unreadable: %s\n" store (S.Storage_error.to_string e);
    { pairs = 0; reachable = 0; unreachable = 0; mismatches = 1 }
  | pager ->
    let yes = ref 0 and no = ref 0 and bad = ref 0 in
    (try
       let cs = S.Cover_store.open_pager pager in
       for i = 1 to pairs do
         let u = Splitmix.int rng n in
         let v =
           match if i land 1 = 0 then Oracle.reached oracle u else [] with
           | [] -> Splitmix.int rng n
           | others -> List.nth others (Splitmix.int rng (List.length others))
         in
         let want = Oracle.reaches oracle u v in
         let got = S.Cover_store.connected cs u v in
         let got = if doctored && i = 1 then not got else got in
         if want then incr yes else incr no;
         if got <> want then incr bad
       done
     with S.Storage_error.Storage_error e ->
       Printf.printf "store %s: %s\n" store (S.Storage_error.to_string e);
       incr bad);
    S.Pager.close pager;
    Printf.printf "store check: %d pairs (%d reachable, %d unreachable), %d mismatches\n" pairs !yes
      !no !bad;
    { pairs; reachable = !yes; unreachable = !no; mismatches = !bad }
