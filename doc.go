// Package attain is the root of a from-scratch Go reproduction of
// "ATTAIN: An Attack Injection Framework for Software-Defined Networking"
// (Ujcich, Thakore, Sanders — DSN 2017).
//
// The implementation lives under internal/:
//
//   - internal/core/model    — the attack model (§IV): system model,
//     attacker capabilities Γ, and the Γ_NC grants
//   - internal/core/lang     — the attack language (§V): conditionals,
//     deque storage, actions, rules, states, state graphs
//   - internal/core/compile  — the compiler (§VI-B1): DSL and XML parsers
//   - internal/core/inject   — the runtime injector (§VI-B2, Algorithm 1)
//   - internal/openflow      — OpenFlow 1.0 wire protocol
//   - internal/switchsim     — software OpenFlow switch (fail-safe/secure)
//   - internal/controller    — Floodlight / POX / Ryu learning-switch profiles
//   - internal/dataplane     — packet codecs, host stack, ping and iperf
//   - internal/netem         — links with bandwidth/latency, transports
//   - internal/monitor       — ping/iperf monitors and SYSCMD registry
//   - internal/experiment    — the §VII case study (Figure 11, Table II)
//
// The one executable is cmd/attain (`attain <subcommand>`); campaign
// specs, the paper's evaluation among them, are under examples/. The benchmarks in bench_test.go
// regenerate every table and figure of the paper's evaluation; see
// DESIGN.md and EXPERIMENTS.md.
package attain
