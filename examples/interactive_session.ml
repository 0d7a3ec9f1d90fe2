(* Interactive comparison session: replay the demo's checkbox interaction
   programmatically. A shopper compares two phones, adds a third and a
   fourth, widens the table, drops one result, and finally re-weights the
   comparison toward what they care about — each step warm-starting from
   the previous DFSs (Session) instead of recomputing from scratch.

   Run with:  dune exec examples/interactive_session.exe *)

let step n what session =
  Printf.printf "step %d: %s\n" n what;
  Printf.printf "        results = %d, L = %d, DoD = %d\n\n"
    (Array.length (Session.profiles session))
    (Session.size_bound session) (Session.dod session);
  session

let die msg =
  prerr_endline msg;
  exit 1

let ok = function Ok v -> v | Error e -> die (Error.to_string e)

let () =
  let dataset = Xsact_dataset.Dataset.product_reviews () in
  let pipeline = Pipeline.create dataset.Xsact_dataset.Dataset.document in
  let results = Pipeline.search ~limit:6 pipeline "mobile phone" in
  let profiles = List.map (Pipeline.profile_of pipeline) results in
  (match profiles with
  | p1 :: p2 :: p3 :: p4 :: _ ->
    (* 1. Start comparing the first two phones. *)
    let s =
      ok (Session.create ~size_bound:6 [ p1; p2 ])
      |> step 1 "compare the first two phones"
    in
    (* 2-3. Tick two more checkboxes. *)
    let s = ok (Session.apply s [ Session.Add p3 ]) |> step 2 "add a third phone" in
    let s = ok (Session.apply s [ Session.Add p4 ]) |> step 3 "add a fourth phone" in
    (* 4. Widen the table. *)
    let s =
      ok (Session.apply s [ Session.Set_size_bound 10 ])
      |> step 4 "widen the table to L = 10"
    in
    (* 5. The second phone is out of budget; drop it. *)
    let s = ok (Session.apply s [ Session.Remove 1 ]) |> step 5 "drop the second phone" in
    Printf.printf "final table:\n\n%s\n" (Render_text.table (Session.table s));
    (* 6. Re-weight toward battery life and star ratings and compare. *)
    let weighted =
      ok
        (Session.create
           ~config:
             Config.(
               default
               |> with_weight
                    (Weighting.by_attribute [ ("battery", 4); ("stars", 3) ]))
           ~size_bound:10
           (Array.to_list (Session.profiles s)))
    in
    Printf.printf
      "re-weighted (battery x4, stars x3): weighted DoD = %d\n"
      (Session.dod weighted);
    Printf.printf "algorithm invocations across the session: %d\n"
      (Session.stats s)
  | _ -> die "not enough phone results in the corpus")
