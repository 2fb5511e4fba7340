// Command chaos runs the seeded fault-injection scenarios of
// internal/chaos for as long as you like — the short versions run in
// `go test ./internal/chaos`; this binary is for overnight sweeps and
// for replaying a failing seed.
//
//	chaos [-scenario name[,name...]] [-seed 1] [-seeds 8] [-cycles 1000] [-v]
//
// The default scenarios are the engine soak (calm, transient-device,
// transient-wal, log-death, crash-recover). shard-halt also prints the
// committed transfers/s before and after one of four shards halts;
// conn-drop runs every transfer as SQL over loopback TCP. An unknown
// name exits 2 and lists the valid ones.
//
// With -seeds N it runs N consecutive seeds (seed, seed+1, ...) and
// stops at the first invariant violation, printing the seed to replay.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
)

func main() {
	list := flag.String("scenario", "calm,transient-device,transient-wal,log-death,crash-recover", "comma-separated scenario names")
	seed := flag.Int64("seed", 1, "base random seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run")
	cycles := flag.Int("cycles", 1000, "scenario steps per seed")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	names, err := chaos.ParseScenarios(*list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	for i := 0; i < *seeds; i++ {
		cfg := chaos.Config{Seed: *seed + int64(i), Scenarios: names, Cycles: *cycles}
		if *verbose {
			cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
		}
		res, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			fmt.Fprintf(os.Stderr, "replay with: go run ./cmd/chaos -scenario %s -seed %d -cycles %d -v\n",
				*list, cfg.Seed, *cycles)
			os.Exit(1)
		}
		fmt.Printf("seed %d: %+v\n", cfg.Seed, res)
		if res.HealthyPerSec > 0 {
			fmt.Printf("shard-halt: %.0f committed transfers/s healthy, %.0f with one shard down (%.1f%% retained)\n",
				res.HealthyPerSec, res.DegradedPerSec, 100*res.DegradedPerSec/res.HealthyPerSec)
		}
	}
}
