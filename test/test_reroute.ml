(* Tests for the Lemma 3.3 rerouting helper: precondition checks (historic
   policy, shared edge, new edges per Def 3.2) and the route rewrite itself. *)

module R = Aqt_util.Ratio
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Policies = Aqt_policy.Policies
module Reroute = Aqt.Reroute

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let rate = R.make 3 5 (* 1/2 + 1/10; ceil(1/r) = 2 *)

let inj route : N.injection = { route; tag = "t" }

(* A line where packets sit at e0 with remaining routes through e1, and the
   suffix extends onto e2, e3 which no injection ever used. *)
let setup () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net [ inj (Array.sub l.edges 0 2); inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  (net, l, packets)

let extend_success () =
  let net, l, packets = setup () in
  (match
     Reroute.extend_all ~rate net ~packets
       ~suffix:[| l.edges.(2); l.edges.(3) |]
   with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected: %s"
        (Format.asprintf "%a" Reroute.pp_error e));
  List.iter
    (fun p ->
      check_int "route extended" 4 (Array.length p.Packet.route);
      check_int "rerouted once" 1 p.Packet.reroutes)
    packets;
  check_int "reroute count" 2 (N.reroute_count net);
  (* Packets actually follow the extension. *)
  for _ = 1 to 6 do
    N.step net []
  done;
  check_int "absorbed after 4 hops each" 2 (N.absorbed net)

let empty_cases_noop () =
  let net, l, packets = setup () in
  check_bool "empty suffix ok" true
    (Reroute.extend_all ~rate net ~packets ~suffix:[||] = Ok ());
  check_bool "no packets ok" true
    (Reroute.extend_all ~rate net ~packets:[] ~suffix:[| l.edges.(2) |] = Ok ());
  List.iter (fun p -> check_int "untouched" 0 p.Packet.reroutes) packets

let rejects_non_historic () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.ntg () in
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2) |] with
  | Error (Reroute.Policy_not_historic "ntg") -> ()
  | _ -> Alcotest.fail "NTG must be rejected (not historic)"

let rejects_no_shared_edge () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  (* One packet needs only e0; the other only e1: no common edge. *)
  N.step net [ inj (Array.sub l.edges 0 1) ];
  N.step net [ inj (Array.sub l.edges 1 1) ];
  let p0 = N.buffer_packets net l.edges.(0) in
  let p1 = N.buffer_packets net l.edges.(1) in
  (* p0's packet was injected at step 1 and crossed e0 in step 2 — it is
     absorbed, so use two fresh disjoint packets instead. *)
  ignore p0;
  let net2 = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net2 [ inj (Array.sub l.edges 0 1); inj (Array.sub l.edges 1 1) ];
  let packets =
    N.buffer_packets net2 l.edges.(0) @ N.buffer_packets net2 l.edges.(1)
  in
  check_int "two live packets" 2 (List.length packets);
  (match
     Reroute.extend_all ~rate net2 ~packets ~suffix:[| l.edges.(2) |]
   with
  | Error Reroute.No_shared_edge -> ()
  | _ -> Alcotest.fail "disjoint routes must be rejected");
  ignore p1

let rejects_stale_edge () =
  let net, l, _ = setup () in
  (* Inject a packet that uses e3 now: e3 is no longer new. *)
  N.step net [ inj (Array.sub l.edges 3 1) ];
  let packets = N.buffer_packets net l.edges.(0) in
  match
    Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2); l.edges.(3) |]
  with
  | Error (Reroute.Stale_edge { edge; _ }) ->
      check_int "e3 flagged" l.edges.(3) edge
  | _ -> Alcotest.fail "recently used edge must be rejected"

(* Def 3.2's threshold uses t* - ceil(1/r): an edge used long before the
   earliest live injection is new again. *)
let old_use_is_fine () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  (* Step 1: a short-lived packet uses e3 and is absorbed immediately. *)
  N.step net [ inj (Array.sub l.edges 3 1) ];
  N.step net [];
  (* Steps 3..6: idle; step 7: inject the packets to extend. *)
  for _ = 3 to 6 do
    N.step net []
  done;
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  (* t* = 7, threshold = 5 > 1 = last use of e3. *)
  check_bool "old use acceptable" true
    (Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2); l.edges.(3) |]
    = Ok ())

let rejects_absorbed () =
  let net, l, packets = setup () in
  (* Drain both packets, then try to extend them. *)
  for _ = 1 to 5 do
    N.step net []
  done;
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2) |] with
  | Error (Reroute.Packet_absorbed _) -> ()
  | _ -> Alcotest.fail "absorbed packets must be rejected"

let rejects_invalid_path () =
  let net, l, packets = setup () in
  (* e4 does not follow e1. *)
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(4) |] with
  | Error (Reroute.Invalid_path _) -> ()
  | _ -> Alcotest.fail "disconnected suffix must be rejected"

let error_is_atomic () =
  let net, l, packets = setup () in
  (* Invalid suffix: verify no packet was modified. *)
  let _ = Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(4) |] in
  List.iter
    (fun p ->
      check_int "route unchanged" 2 (Array.length p.Packet.route);
      check_int "no reroute recorded" 0 p.Packet.reroutes)
    packets

let check_new_edges_direct () =
  let net, l, _ = setup () in
  check_bool "unused edges are new" true
    (Reroute.check_new_edges ~rate net [| l.edges.(3); l.edges.(4) |] = Ok ());
  (* e0 and e1 were just injected on. *)
  check_bool "used edges are stale" true
    (Result.is_error (Reroute.check_new_edges ~rate net [| l.edges.(0) |]))

(* Route groups: packets sharing a route array and a hop get one rewrite,
   and the rewritten routes are interned, so equal contents share one
   array even across groups. *)
module Intern = Aqt_engine.Route_intern

let buffered net (l : B.line) e = N.buffer_packets net l.edges.(e)

let groups_share_interned_routes () =
  let l = B.line 6 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let a = Array.sub l.edges 0 3 and b = Array.sub l.edges 1 2 in
  N.step net [ inj a; inj a ];
  N.step net [ inj a; inj a; inj b ];
  (* e0 holds three A packets at hop 0; e1 one A packet at hop 1 and the
     B packet: three groups, two distinct rewritten contents. *)
  let packets = buffered net l 0 @ buffered net l 1 in
  check_int "five packets" 5 (List.length packets);
  let is_a (p : Packet.t) = Array.length p.route = 3 in
  let hops =
    List.sort_uniq compare
      (List.map (fun (p : Packet.t) -> (is_a p, p.hop)) packets)
  in
  check_int "three groups" 3 (List.length hops);
  let a_packets, b_packets = List.partition is_a packets in
  let table = N.route_table net in
  let misses = Intern.misses table in
  let suffix = [| l.edges.(3); l.edges.(4) |] in
  (match Reroute.extend_all ~rate net ~packets ~suffix with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Reroute.pp_error e);
  check_int "one miss per distinct new route" (misses + 2)
    (Intern.misses table);
  let shared = (List.hd a_packets).Packet.route in
  check_bool "A rewritten" true (shared = Array.sub l.edges 0 5);
  List.iter
    (fun (p : Packet.t) ->
      check_bool "A packets share one array" true (p.route == shared);
      check_int "rerouted once" 1 p.reroutes)
    a_packets;
  List.iter
    (fun (p : Packet.t) ->
      check_bool "B rewritten" true (p.route = Array.sub l.edges 1 4);
      check_bool "B has its own array" false (p.route == shared))
    b_packets;
  check_int "reroute count" 5 (N.reroute_count net)

let failing_second_group_is_atomic () =
  let l = B.line 6 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let r1 = Array.sub l.edges 1 2 and r2 = Array.sub l.edges 1 1 in
  N.step net [ inj r1; inj r2; inj r1; inj r2 ];
  (* Interleave the two groups: R1 extends to a simple path, R2 does not
     (e1 then e3 skips e2), and R2's first packet is second in the list. *)
  let packets = buffered net l 1 in
  check_int "four packets" 4 (List.length packets);
  let first_bad =
    List.find (fun (p : Packet.t) -> Array.length p.route = 1) packets
  in
  check_bool "first group valid" true
    (Array.length (List.hd packets).Packet.route = 2);
  let before = List.map (fun (p : Packet.t) -> p.route) packets in
  let table = N.route_table net in
  let distinct = Intern.distinct table in
  let suffix = [| l.edges.(3); l.edges.(4) |] in
  (match Reroute.extend_all ~rate net ~packets ~suffix with
  | Error (Reroute.Invalid_path msg) ->
      check_string "names the first failing packet"
        (Format.asprintf "packet #%d: %a" first_bad.id
           (Aqt_graph.Digraph.pp_route l.graph)
           (Array.append r2 suffix))
        msg
  | _ -> Alcotest.fail "second group must fail validation");
  List.iter2
    (fun (p : Packet.t) route ->
      check_bool "route untouched" true (p.route == route);
      check_int "not rerouted" 0 p.reroutes)
    packets before;
  check_int "nothing interned" distinct (Intern.distinct table);
  check_int "no reroutes" 0 (N.reroute_count net)

let reroute_validates_unseen_content () =
  let l = B.line 4 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let p = List.hd (buffered net l 0) in
  let route = p.route in
  let table = N.route_table net in
  let distinct = Intern.distinct table in
  let expected =
    Invalid_argument
      (Format.asprintf "Network: route %a is not a simple path"
         (Aqt_graph.Digraph.pp_route l.graph)
         [| l.edges.(0); l.edges.(2) |])
  in
  (* Twice: a rejected rewrite must not be cached as valid. *)
  for _ = 1 to 2 do
    Alcotest.check_raises "non-simple rewrite" expected (fun () ->
        N.reroute net p [| l.edges.(2) |])
  done;
  check_int "not interned" distinct (Intern.distinct table);
  check_bool "route untouched" true (p.route == route);
  check_int "not rerouted" 0 p.reroutes

(* Property form of Lemma 3.3: whenever [extend_all] accepts, the run's final
   effective routes still satisfy the exact rate-r constraint. *)
let prop_accepted_extensions_stay_rate_legal =
  QCheck.Test.make ~name:"accepted extensions keep the log rate-legal"
    ~count:100
    (QCheck.quad (QCheck.int_range 1 4) (QCheck.int_range 2 9)
       (QCheck.int_range 5 30) (QCheck.int_range 1 6))
    (fun (p, q, extend_at, suffix_len) ->
      QCheck.assume (p < q);
      let rate = R.make p q in
      let hops = 16 in
      let l = B.line hops in
      let net =
        N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
      in
      let route = Array.sub l.edges 0 4 in
      let flow =
        Aqt_adversary.Flow.make ~route ~rate ~start:1 ~stop:40 ()
      in
      let extended = ref true in
      for t = 1 to 80 do
        if t = extend_at then begin
          let packets = ref [] in
          for e = 0 to 3 do
            packets := N.buffer_packets net l.edges.(e) @ !packets
          done;
          let suffix =
            Array.init suffix_len (fun j -> l.edges.(4 + j))
          in
          match Reroute.extend_all ~rate net ~packets:!packets ~suffix with
          | Ok () -> ()
          | Error _ -> extended := false
        end;
        N.step net
          (List.init (Aqt_adversary.Flow.count_at flow t)
             (fun _ : N.injection -> { route; tag = "f" }))
      done;
      (* The property: either rejected cleanly, or the final routes remain a
         legal rate-r injection pattern. *)
      (not !extended)
      || Aqt_adversary.Rate_check.check_rate ~m:hops ~rate
           (N.injection_log net)
         = Ok ())

(* And the rejection direction: extensions onto an edge used too recently
   are always refused. *)
let prop_stale_extensions_rejected =
  QCheck.Test.make ~name:"extensions onto just-used edges are rejected"
    ~count:100
    (QCheck.int_range 2 9)
    (fun q ->
      let rate = R.make 1 q in
      let l = B.line 6 in
      let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
      (* Use e4 now, then immediately try to extend onto it. *)
      N.step net [ inj (Array.sub l.edges 0 2); inj (Array.sub l.edges 4 1) ];
      let packets = N.buffer_packets net l.edges.(0) in
      match
        Reroute.extend_all ~rate net ~packets
          ~suffix:[| l.edges.(2); l.edges.(3); l.edges.(4) |]
      with
      | Error (Reroute.Stale_edge _) -> true
      | _ -> false)

let () =
  Alcotest.run "aqt_reroute"
    [
      ( "lemma-3.3",
        [
          Alcotest.test_case "extension succeeds" `Quick extend_success;
          Alcotest.test_case "no-ops" `Quick empty_cases_noop;
          Alcotest.test_case "non-historic rejected" `Quick rejects_non_historic;
          Alcotest.test_case "no shared edge" `Quick rejects_no_shared_edge;
          Alcotest.test_case "stale edge" `Quick rejects_stale_edge;
          Alcotest.test_case "old use is new again" `Quick old_use_is_fine;
          Alcotest.test_case "absorbed packets" `Quick rejects_absorbed;
          Alcotest.test_case "invalid path" `Quick rejects_invalid_path;
          Alcotest.test_case "atomic on error" `Quick error_is_atomic;
          Alcotest.test_case "check_new_edges" `Quick check_new_edges_direct;
          Alcotest.test_case "groups share interned routes" `Quick
            groups_share_interned_routes;
          Alcotest.test_case "failing second group is atomic" `Quick
            failing_second_group_is_atomic;
          Alcotest.test_case "reroute validates unseen content" `Quick
            reroute_validates_unseen_content;
          QCheck_alcotest.to_alcotest prop_accepted_extensions_stay_rate_legal;
          QCheck_alcotest.to_alcotest prop_stale_extensions_rejected;
        ] );
    ]
