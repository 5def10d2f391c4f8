// Command attain-fabric runs one fabric-scale scenario: it generates a
// topology from a descriptor, instantiates every switch in-process wired
// to a shared controller profile (internal/topo), optionally interposes
// the injector with a topology-level attack, and reports convergence
// latencies plus the discovery audit.
//
// Usage:
//
//	attain-fabric -topo leafspine:4x12x2                  # baseline bring-up
//	attain-fabric -topo fattree:8 -attack lldp-poison     # topology poisoning
//	attain-fabric -topo jellyfish:200x6 -attack link-flap -scale 20
//	attain-fabric -topo linear:10 -attack fingerprint -profile pox
//	attain-fabric -topo ring:50 -json                     # machine-readable result
//
// Topology descriptors: linear:N[xH], ring:N[xH], leafspine:SxL[xH],
// fattree:K, jellyfish:NxD[xH] (H = hosts per switch). Attacks: baseline,
// lldp-poison, link-flap, fingerprint.
//
// The command exits 0 when the scenario ran; for attack runs the
// "deviation" field says whether the attack observably corrupted the
// controller's view. Exit 1 is reserved for scenario failures (bad flags,
// generation errors, bring-up timeouts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"attain/internal/campaign"
	"attain/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attain-fabric:", err)
		os.Exit(1)
	}
}

func run() error {
	topoDesc := flag.String("topo", "", "topology descriptor (required), e.g. leafspine:4x12x2")
	profileName := flag.String("profile", "floodlight", "controller profile: floodlight, pox, or ryu")
	attack := flag.String("attack", "baseline", "topology-level attack: baseline, lldp-poison, link-flap, or fingerprint")
	seed := flag.Int64("seed", 1, "generator and stochastic seed")
	scale := flag.Int("scale", 0, "virtual time scale (0/1 = real time)")
	observe := flag.Duration("observe", 3*time.Second, "attack observation window after discovery converges (wall time)")
	timeout := flag.Duration("timeout", 60*time.Second, "bring-up and discovery convergence timeout (wall time)")
	shards := flag.Int("shards", 0, "event loops hosting the switches and the injector (0 = one loop)")
	wave := flag.Int("wave", 0, "max concurrent handshakes per bring-up wave with -shards (0 = default 256)")
	asJSON := flag.Bool("json", false, "emit the full result as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the scenario")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *topoDesc == "" {
		flag.Usage()
		return fmt.Errorf("-topo is required")
	}
	profile, err := campaign.ParseProfile(*profileName)
	if err != nil {
		return err
	}

	res, err := topo.RunScenario(topo.ScenarioConfig{
		Topology:        *topoDesc,
		Profile:         profile,
		Attack:          *attack,
		Seed:            *seed,
		TimeScale:       *scale,
		Observe:         *observe,
		ConnectTimeout:  *timeout,
		DiscoverTimeout: *timeout,
		Shards:          *shards,
		WaveSize:        *wave,
	})
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("fabric %s: %d switches, %d links, %d hosts (profile %s)\n",
		res.Topology, res.Switches, res.Links, res.Hosts, res.Profile)
	fmt.Printf("  connected in %.2fms (virtual), discovery %s in %.2fms\n",
		res.ConnectMS, convergeWord(res.DiscoveryConverged), res.DiscoverMS)
	fmt.Printf("  audit: %d/%d adjacencies, %d phantom, %d missing, %d port-status events\n",
		res.DiscoveredLinks, 2*res.Links, res.PhantomLinks, res.MissingLinks, res.PortStatusEvents)
	fmt.Printf("  shard-hosted: %d shards, %d bring-up waves, peak %d goroutines\n",
		max(*shards, 1), res.BringupWaves, res.PeakGoroutines)
	if res.Attack != topo.AttackBaseline {
		fmt.Printf("  attack %s: deviation=%v", res.Attack, res.Deviation)
		if res.Detail != "" {
			fmt.Printf(" (%s)", res.Detail)
		}
		fmt.Println()
	}
	if fp := res.Fingerprint; fp != nil {
		fmt.Printf("  fingerprint: guess=%s median=%.2fms burst=%.2f single-threaded=%v\n",
			fp.Guess, fp.MedianMS, fp.BurstFactor, fp.SingleThreaded)
	}
	return nil
}

func convergeWord(ok bool) string {
	if ok {
		return "converged"
	}
	return "stalled"
}
