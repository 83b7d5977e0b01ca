(* Tests for the RL substrate: MLP gradients and capacity, replay
   buffer semantics, and DQN learning a toy MDP to optimality. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* MLP *)

let test_mlp_shapes () =
  let net = Rl.Mlp.create ~sizes:[| 3; 5; 2 |] ~seed:1 in
  check "in" 3 (Rl.Mlp.input_dim net);
  check "out" 2 (Rl.Mlp.output_dim net);
  check "params" ((3 * 5) + 5 + (5 * 2) + 2) (Rl.Mlp.parameter_count net);
  let y = Rl.Mlp.forward net [| 0.1; -0.2; 0.3 |] in
  check "output length" 2 (Array.length y);
  Alcotest.check_raises "bad input"
    (Invalid_argument "Mlp.forward: input dimension mismatch") (fun () ->
      ignore (Rl.Mlp.forward net [| 1.0 |]))

let test_mlp_gradient_check () =
  (* Numeric gradient of the loss w.r.t. the first layer weights must
     match the training step's analytic direction.  We verify by
     checking that a small Adam-free proxy — the loss decreases under
     repeated small steps. *)
  let net = Rl.Mlp.create ~sizes:[| 2; 8; 3 |] ~seed:11 in
  let sample = ([| 0.5; -1.0 |], 1, 0.7) in
  let loss0 = Rl.Mlp.train_batch net ~lr:1e-2 [| sample |] in
  let rec go i last =
    if i = 0 then last else go (i - 1) (Rl.Mlp.train_batch net ~lr:1e-2 [| sample |])
  in
  let loss_final = go 200 loss0 in
  check_bool
    (Printf.sprintf "loss decreased (%.4f -> %.6f)" loss0 loss_final)
    true
    (loss_final < loss0 /. 10.0)

let test_mlp_fits_xor () =
  (* Regression of XOR onto output 0: classic non-linear sanity test. *)
  let net = Rl.Mlp.create ~sizes:[| 2; 16; 1 |] ~seed:5 in
  let data =
    [|
      ([| 0.0; 0.0 |], 0, 0.0);
      ([| 0.0; 1.0 |], 0, 1.0);
      ([| 1.0; 0.0 |], 0, 1.0);
      ([| 1.0; 1.0 |], 0, 0.0);
    |]
  in
  let final_loss = ref infinity in
  for _ = 1 to 2000 do
    final_loss := Rl.Mlp.train_batch net ~lr:5e-3 data
  done;
  check_bool
    (Printf.sprintf "xor fitted (loss %.5f)" !final_loss)
    true (!final_loss < 0.01)

let test_mlp_copy_and_clone () =
  let a = Rl.Mlp.create ~sizes:[| 2; 4; 2 |] ~seed:1 in
  let b = Rl.Mlp.create ~sizes:[| 2; 4; 2 |] ~seed:99 in
  let x = [| 0.3; -0.7 |] in
  check_bool "different nets differ" true (Rl.Mlp.forward a x <> Rl.Mlp.forward b x);
  Rl.Mlp.copy_weights ~src:a ~dst:b;
  check_bool "copied nets agree" true (Rl.Mlp.forward a x = Rl.Mlp.forward b x);
  let c = Rl.Mlp.clone a in
  check_bool "clone agrees" true (Rl.Mlp.forward a x = Rl.Mlp.forward c x);
  (* Training the clone must not affect the original. *)
  let before = Rl.Mlp.forward a x in
  ignore (Rl.Mlp.train_batch c ~lr:0.1 [| (x, 0, 5.0) |]);
  check_bool "original untouched" true (Rl.Mlp.forward a x = before)

let test_mlp_save_load () =
  let a = Rl.Mlp.create ~sizes:[| 3; 7; 4 |] ~seed:42 in
  let s = Rl.Mlp.save_string a in
  let b = Rl.Mlp.load_string s in
  let x = [| 0.1; 0.2; -0.3 |] in
  let ya = Rl.Mlp.forward a x and yb = Rl.Mlp.forward b x in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-12)) "coord" v yb.(i))
    ya

(* ------------------------------------------------------------------ *)
(* Replay *)

let tr s a r s' =
  { Rl.Replay.state = [| s |]; action = a; reward = r;
    next_state = Option.map (fun x -> [| x |]) s' }

let test_replay_ring () =
  let buf = Rl.Replay.create ~capacity:3 ~seed:1 in
  check "empty" 0 (Rl.Replay.size buf);
  Rl.Replay.push buf (tr 1.0 0 0.0 None);
  Rl.Replay.push buf (tr 2.0 0 0.0 None);
  check "two" 2 (Rl.Replay.size buf);
  Rl.Replay.push buf (tr 3.0 0 0.0 None);
  Rl.Replay.push buf (tr 4.0 0 0.0 None);
  check "capped" 3 (Rl.Replay.size buf);
  (* Entry 1.0 was overwritten: samples never contain it. *)
  let samples = Rl.Replay.sample buf 100 in
  Array.iter
    (fun t -> check_bool "no stale entry" true (t.Rl.Replay.state.(0) > 1.5))
    samples

let test_replay_empty_sample () =
  let buf = Rl.Replay.create ~capacity:2 ~seed:1 in
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Replay.sample: empty buffer") (fun () ->
      ignore (Rl.Replay.sample buf 1))

(* ------------------------------------------------------------------ *)
(* DQN on a toy MDP: a 1-D corridor of 5 cells; action 1 moves right,
   action 0 moves left; reward 1.0 only when reaching the right end,
   which is terminal.  Optimal return from the start is 1.0. *)

let corridor_env () =
  let pos = ref 0 in
  let n = 5 in
  let state () =
    Array.init n (fun i -> if i = !pos then 1.0 else 0.0)
  in
  {
    Rl.Dqn.reset =
      (fun () ->
        pos := 0;
        state ());
    step =
      (fun a ->
        (if a = 1 then incr pos else if !pos > 0 then decr pos);
        let terminal = !pos = n - 1 in
        (state (), (if terminal then 1.0 else 0.0), terminal));
  }

let test_dqn_learns_corridor () =
  let cfg =
    {
      Rl.Dqn.default_config with
      Rl.Dqn.state_dim = 5;
      num_actions = 2;
      hidden = [| 16 |];
      gamma = 0.9;
      lr = 5e-3;
      batch_size = 16;
      buffer_capacity = 2000;
      target_sync = 50;
      eps_decay_steps = 400;
      seed = 3;
    }
  in
  let agent = Rl.Dqn.create cfg in
  let env = corridor_env () in
  for _ = 1 to 150 do
    ignore (Rl.Dqn.run_episode agent env ~max_steps:30 ~learn:true)
  done;
  (* Greedy policy must walk straight to the goal: 4 steps, reward 1. *)
  let r = Rl.Dqn.run_episode agent env ~max_steps:6 ~learn:false in
  Alcotest.(check (float 1e-9)) "optimal return" 1.0 r;
  check_bool "trained" true (Rl.Dqn.training_steps agent > 0)

let test_dqn_weights_roundtrip () =
  let cfg =
    { Rl.Dqn.default_config with Rl.Dqn.state_dim = 3; num_actions = 2;
      hidden = [| 8 |] }
  in
  let a = Rl.Dqn.create cfg in
  let b = Rl.Dqn.create { cfg with Rl.Dqn.seed = 321 } in
  let s = [| 0.1; 0.5; -0.2 |] in
  check_bool "different" true (Rl.Dqn.q_values a s <> Rl.Dqn.q_values b s);
  Rl.Dqn.load_weights_string b (Rl.Dqn.save_string a);
  check_bool "restored" true (Rl.Dqn.q_values a s = Rl.Dqn.q_values b s)

let test_dqn_epsilon_respected () =
  (* With explore:false the policy is deterministic. *)
  let cfg =
    { Rl.Dqn.default_config with Rl.Dqn.state_dim = 2; num_actions = 3;
      hidden = [| 4 |] }
  in
  let agent = Rl.Dqn.create cfg in
  let s = [| 0.4; -0.1 |] in
  let a0 = Rl.Dqn.select_action agent s in
  for _ = 1 to 20 do
    check "greedy stable" a0 (Rl.Dqn.select_action agent s)
  done

let suite =
  [
    ("mlp shapes", `Quick, test_mlp_shapes);
    ("mlp training reduces loss", `Quick, test_mlp_gradient_check);
    ("mlp fits xor", `Quick, test_mlp_fits_xor);
    ("mlp copy/clone", `Quick, test_mlp_copy_and_clone);
    ("mlp save/load", `Quick, test_mlp_save_load);
    ("replay ring buffer", `Quick, test_replay_ring);
    ("replay empty sample", `Quick, test_replay_empty_sample);
    ("dqn learns corridor MDP", `Quick, test_dqn_learns_corridor);
    ("dqn weights roundtrip", `Quick, test_dqn_weights_roundtrip);
    ("dqn greedy is deterministic", `Quick, test_dqn_epsilon_respected);
  ]

let test_mlp_rejects_bad_shapes () =
  Alcotest.check_raises "too few sizes"
    (Invalid_argument "Mlp.create: need >= 2 sizes") (fun () ->
      ignore (Rl.Mlp.create ~sizes:[| 3 |] ~seed:1));
  Alcotest.check_raises "zero width"
    (Invalid_argument "Mlp.create: bad size") (fun () ->
      ignore (Rl.Mlp.create ~sizes:[| 3; 0; 2 |] ~seed:1));
  Alcotest.check_raises "copy shape mismatch"
    (Invalid_argument "Mlp.copy_weights: shape mismatch") (fun () ->
      let a = Rl.Mlp.create ~sizes:[| 2; 2 |] ~seed:1 in
      let b = Rl.Mlp.create ~sizes:[| 2; 3 |] ~seed:1 in
      Rl.Mlp.copy_weights ~src:a ~dst:b)

let test_mlp_train_empty_batch () =
  let net = Rl.Mlp.create ~sizes:[| 2; 2 |] ~seed:1 in
  Alcotest.(check (float 0.0)) "empty batch loss" 0.0
    (Rl.Mlp.train_batch net ~lr:0.01 [||])

let test_dqn_epsilon_annealing () =
  (* With explore:true and a broken-greedy setup, actions should still
     be legal; after decay_steps selections epsilon reaches eps_end. *)
  let cfg =
    { Rl.Dqn.default_config with
      Rl.Dqn.state_dim = 2; num_actions = 4; hidden = [| 4 |];
      eps_start = 1.0; eps_end = 0.0; eps_decay_steps = 50 }
  in
  let agent = Rl.Dqn.create cfg in
  let s = [| 0.0; 1.0 |] in
  for _ = 1 to 200 do
    let a = Rl.Dqn.select_action agent ~explore:true s in
    check_bool "action in range" true (a >= 0 && a < 4)
  done;
  (* After decay, greedy must be stable again. *)
  let a0 = Rl.Dqn.select_action agent s in
  for _ = 1 to 10 do
    check "greedy after decay" a0 (Rl.Dqn.select_action agent s)
  done

let test_mlp_save_load_exact () =
  (* Hex-float serialization must round-trip bit-for-bit: the reloaded
     net re-serializes to the identical string and its forward pass is
     bitwise equal, including after training perturbs the weights. *)
  let a = Rl.Mlp.create ~sizes:[| 4; 9; 5 |] ~seed:7 in
  for i = 1 to 50 do
    ignore
      (Rl.Mlp.train_batch a ~lr:1e-2
         [| ([| float i; 0.3; -1.7; 0.01 |], i mod 5, sin (float i)) |])
  done;
  let s = Rl.Mlp.save_string a in
  let b = Rl.Mlp.load_string s in
  check_bool "re-serialization identical" true (Rl.Mlp.save_string b = s);
  let x = [| 0.123; -4.56; 7.89; -0.001 |] in
  check_bool "forward bitwise equal" true
    (Rl.Mlp.forward a x = Rl.Mlp.forward b x)

let test_mlp_finite_difference_gradients () =
  (* Central finite differences on a handful of coordinates must match
     the analytic backward pass.  Inputs and targets keep every ReLU
     pre-activation away from 0, so the loss is smooth at the probe. *)
  let net = Rl.Mlp.create ~sizes:[| 3; 6; 4 |] ~seed:23 in
  let batch =
    [|
      ([| 0.8; -0.4; 1.3 |], 0, 0.9);
      ([| -1.1; 0.6; 0.2 |], 2, -0.5);
      ([| 0.3; 0.9; -0.7 |], 3, 1.4);
    |]
  in
  let _, _, loss = Rl.Mlp.gradients net batch in
  Alcotest.(check (float 1e-12))
    "gradients' loss matches loss_batch" (Rl.Mlp.loss_batch net batch) loss;
  let grads_w, grads_b, _ = Rl.Mlp.gradients net batch in
  let eps = 1e-5 in
  let probe_weight layer out idx =
    Rl.Mlp.nudge_weight net ~layer ~out ~idx eps;
    let up = Rl.Mlp.loss_batch net batch in
    Rl.Mlp.nudge_weight net ~layer ~out ~idx (-2.0 *. eps);
    let dn = Rl.Mlp.loss_batch net batch in
    Rl.Mlp.nudge_weight net ~layer ~out ~idx eps;
    let numeric = (up -. dn) /. (2.0 *. eps) in
    let analytic = grads_w.(layer).(out).(idx) in
    let scale = Float.max 1.0 (Float.abs numeric) in
    check_bool
      (Printf.sprintf "dW[%d][%d][%d]: %.8g vs %.8g" layer out idx numeric
         analytic)
      true
      (Float.abs (numeric -. analytic) /. scale < 1e-6)
  in
  let probe_bias layer out =
    Rl.Mlp.nudge_bias net ~layer ~out eps;
    let up = Rl.Mlp.loss_batch net batch in
    Rl.Mlp.nudge_bias net ~layer ~out (-2.0 *. eps);
    let dn = Rl.Mlp.loss_batch net batch in
    Rl.Mlp.nudge_bias net ~layer ~out eps;
    let numeric = (up -. dn) /. (2.0 *. eps) in
    let analytic = grads_b.(layer).(out) in
    let scale = Float.max 1.0 (Float.abs numeric) in
    check_bool
      (Printf.sprintf "dB[%d][%d]: %.8g vs %.8g" layer out numeric analytic)
      true
      (Float.abs (numeric -. analytic) /. scale < 1e-6)
  in
  for out = 0 to 5 do
    probe_weight 0 out 0;
    probe_weight 0 out 2;
    probe_bias 0 out
  done;
  for out = 0 to 3 do
    probe_weight 1 out 1;
    probe_weight 1 out 5;
    probe_bias 1 out
  done

let test_dqn_concurrent_domains () =
  (* One shared agent hammered from several domains: selection,
     observation/training and serialization must never tear or raise.
     The mutex audit this guards is Dqn's [locked] wrapper. *)
  let cfg =
    { Rl.Dqn.default_config with
      Rl.Dqn.state_dim = 4; num_actions = 3; hidden = [| 8 |];
      batch_size = 8; buffer_capacity = 256; target_sync = 20;
      eps_decay_steps = 100; seed = 9 }
  in
  let agent = Rl.Dqn.create cfg in
  let errors = Atomic.make 0 in
  let worker k () =
    try
      for i = 1 to 200 do
        let s = Array.init 4 (fun j -> float ((i + j + k) mod 7) /. 7.0) in
        let a = Rl.Dqn.select_action agent ~explore:(k mod 2 = 0) s in
        if a < 0 || a >= 3 then Atomic.incr errors;
        Rl.Dqn.observe agent
          { Rl.Replay.state = s; action = a; reward = float (i mod 3);
            next_state = (if i mod 5 = 0 then None else Some s) };
        if i mod 50 = 0 then ignore (Rl.Dqn.save_string agent);
        ignore (Rl.Dqn.q_values agent s);
        ignore (Rl.Dqn.last_loss agent)
      done
    with _ -> Atomic.incr errors
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  check "no concurrent errors" 0 (Atomic.get errors);
  check_bool "trained under contention" true (Rl.Dqn.training_steps agent > 0)

let test_mlp_concurrent_readers () =
  (* Inference on a frozen net only reads its weights: [Mlp.forward]
     from several domains at once must give bit-identical outputs. *)
  let net = Rl.Mlp.create ~sizes:[| 5; 12; 6 |] ~seed:31 in
  let x = [| 0.2; -0.4; 0.8; -1.6; 3.2 |] in
  let expect = Rl.Mlp.forward net x in
  let mismatches = Atomic.make 0 in
  let reader () =
    for _ = 1 to 500 do
      if Rl.Mlp.forward net x <> expect then Atomic.incr mismatches
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn reader) in
  List.iter Domain.join domains;
  check "deterministic across domains" 0 (Atomic.get mismatches)

let suite =
  suite
  @ [
      ("mlp rejects bad shapes", `Quick, test_mlp_rejects_bad_shapes);
      ("mlp empty batch", `Quick, test_mlp_train_empty_batch);
      ("dqn epsilon annealing", `Quick, test_dqn_epsilon_annealing);
      ("mlp save/load bit-exact", `Quick, test_mlp_save_load_exact);
      ("mlp finite-difference gradient check", `Quick,
       test_mlp_finite_difference_gradients);
      ("dqn shared across domains", `Quick, test_dqn_concurrent_domains);
      ("mlp concurrent readers agree", `Quick, test_mlp_concurrent_readers);
    ]
