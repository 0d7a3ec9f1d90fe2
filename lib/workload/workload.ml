type instance = {
  label : string;
  keywords : string;
  result_count : int;
  profiles : Result_profile.t array;
}

let instances ?(top = 5) ?lift_to pipeline queries =
  List.filter_map
    (fun (label, keywords) ->
      let results = Pipeline.search ?lift_to pipeline keywords in
      let chosen = List.filteri (fun i _ -> i < top) results in
      if List.length chosen < 2 then None
      else
        Some
          {
            label;
            keywords;
            result_count = List.length results;
            profiles =
              Array.of_list
                (List.map (Pipeline.profile_of pipeline) chosen);
          })
    queries

type prepared = {
  dataset : Xsact_dataset.Dataset.t;
  pipeline : Pipeline.t;
  queries : instance list;
}

let prepare ?top ?lift_to (dataset : Xsact_dataset.Dataset.t) =
  let pipeline = Pipeline.create dataset.document in
  {
    dataset;
    pipeline;
    queries = instances ?top ?lift_to pipeline dataset.queries;
  }

let imdb_qm ?movies ?top () =
  let params =
    match movies with
    | Some m -> { Xsact_dataset.Imdb.default_params with movies = m }
    | None -> Xsact_dataset.Imdb.default_params
  in
  prepare ?top (Xsact_dataset.Dataset.imdb ~params ())

let paper_gps_profiles () =
  let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v in
  let gps1 =
    Result_profile.make ~label:"TomTom Go 630 Portable GPS"
      ~populations:[ ("review", 11); ("product", 1) ]
      [
        (f ~e:"product" ~a:"name" ~v:"TomTom Go 630 Portable GPS", 1);
        (f ~e:"product" ~a:"rating" ~v:"4.2", 1);
        (f ~e:"review" ~a:"pro:easy-to-read" ~v:"yes", 10);
        (f ~e:"review" ~a:"pro:compact" ~v:"yes", 8);
        (f ~e:"review" ~a:"best-use:auto" ~v:"yes", 6);
        (f ~e:"review" ~a:"user-category:casual" ~v:"yes", 6);
        (* the tail hidden behind Figure 1's "..." *)
        (f ~e:"review" ~a:"pro:easy-to-setup" ~v:"yes", 3);
        (f ~e:"review" ~a:"pro:acquires-satellites-quickly" ~v:"yes", 2);
        (f ~e:"review" ~a:"pro:large-screen" ~v:"yes", 1);
        (f ~e:"review" ~a:"best-use:faster-routers" ~v:"yes", 1);
      ]
  in
  let gps3 =
    Result_profile.make ~label:"TomTom Go 730 (Tri-linguial) BOX"
      ~populations:[ ("review", 68); ("product", 1) ]
      [
        (f ~e:"product" ~a:"name" ~v:"TomTom Go 730 (Tri-linguial) BOX", 1);
        (f ~e:"product" ~a:"rating" ~v:"4.1", 1);
        (f ~e:"review" ~a:"pro:acquires-satellites-quickly" ~v:"yes", 44);
        (f ~e:"review" ~a:"pro:easy-to-setup" ~v:"yes", 40);
        (f ~e:"review" ~a:"pro:compact" ~v:"yes", 38);
        (f ~e:"review" ~a:"best-use:faster-routers" ~v:"yes", 26);
        (* the tail hidden behind Figure 1's "..." *)
        (f ~e:"review" ~a:"pro:easy-to-read" ~v:"yes", 5);
        (f ~e:"review" ~a:"user-category:casual" ~v:"yes", 4);
        (f ~e:"review" ~a:"pro:large-screen" ~v:"yes", 4);
        (f ~e:"review" ~a:"best-use:auto" ~v:"yes", 3);
      ]
  in
  [| gps1; gps3 |]

let synthetic_profiles ~seed ~results ~entities ~types_per_entity
    ~values_per_type ~max_count =
  let open Xsact_util in
  let g = Prng.of_int seed in
  let entity_name e = Printf.sprintf "e%d" e in
  let attr_name a = Printf.sprintf "attr%d" a in
  let value_name v = Printf.sprintf "v%d" v in
  Array.init results (fun r ->
      let features = ref [] in
      for e = 0 to entities - 1 do
        for a = 0 to types_per_entity - 1 do
          (* Drop the whole type with probability 1/4 so the shared-type
             structure differs across results. *)
          if not (Prng.chance g 0.25) then begin
            let nvals = Prng.int_in g 1 values_per_type in
            for v = 0 to nvals - 1 do
              let feature =
                Feature.make ~entity:(entity_name e) ~attribute:(attr_name a)
                  ~value:(value_name v)
              in
              features := (feature, Prng.int_in g 1 max_count) :: !features
            done
          end
        done
      done;
      let populations =
        List.init entities (fun e -> (entity_name e, max_count))
      in
      (* A profile must not be empty; re-add one feature if needed. *)
      let features =
        if !features = [] then
          [ (Feature.make ~entity:"e0" ~attribute:"attr0" ~value:"v0", 1) ]
        else !features
      in
      Result_profile.make
        ~label:(Printf.sprintf "R%d" (r + 1))
        ~populations features)
