package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage/disk"
	"repro/internal/wal"
)

// ServerAvailabilityConfig parameterizes an availability-under-failure
// measurement: single-row SQL writes over TCP against a sharded node,
// measured healthy and then again with one shard crash-halted.
type ServerAvailabilityConfig struct {
	Seed    int64
	Shards  int           // default 8
	Keys    int           // default 256
	Workers int           // default 4
	Phase   time.Duration // per-phase measurement window (default 300ms)
	Logf    func(format string, args ...any)
}

// ServerAvailabilityResult reports successful operations per second in
// each phase. DownFailures counts the degraded phase's typed failures
// (operations routed to the dead shard); they are expected, bounded by
// the dead shard's key share, and never block the healthy shards.
type ServerAvailabilityResult struct {
	HealthyOps     int64
	HealthyPerSec  float64
	DegradedOps    int64
	DegradedPerSec float64
	DownFailures   int64
}

// ServerAvailabilityRun measures ops/s over the wire with every shard
// healthy, then with one of the shards crash-halted: the paper's
// partial-availability claim in numbers. The degraded throughput should
// track the healthy shards' key share ((Shards-1)/Shards of keys keep
// committing), not collapse to zero. A non-nil error means a phase was
// vacuous or the node failed to restart cleanly.
func ServerAvailabilityRun(cfg ServerAvailabilityConfig) (ServerAvailabilityResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Phase <= 0 {
		cfg.Phase = 300 * time.Millisecond
	}
	var res ServerAvailabilityResult

	node, err := shard.Open(shard.Config{
		Shards: cfg.Shards,
		Engine: func(i int) core.Config {
			c := core.DefaultConfig()
			c.DataDevice = disk.NewMemDevice(0, 0)
			c.SysLogBackend = wal.NewMemBackend()
			c.IMRSLogBackend = wal.NewMemBackend()
			c.IMRSCacheBytes = 4 << 20
			c.PackInterval = time.Hour
			c.RetrySleep = func(time.Duration) {}
			return c
		},
		RouteRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		return res, err
	}
	defer node.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := server.New(sql.Wrap(btrim.WrapNode(node)))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveErr
	}()

	admin, err := server.Dial(addr)
	if err != nil {
		return res, err
	}
	defer admin.Close()
	if _, err := admin.Exec(`CREATE TABLE bal (id INT, qty INT, PRIMARY KEY (id))`); err != nil {
		return res, err
	}
	var ins strings.Builder
	ins.WriteString(`INSERT INTO bal VALUES `)
	for id := 1; id <= cfg.Keys; id++ {
		if id > 1 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", id, initialBalance)
	}
	if _, err := admin.Exec(ins.String()); err != nil {
		return res, err
	}

	// phase runs single-row autocommit UPDATEs from every worker for the
	// window and returns (successes, typed failures).
	phase := func(tag string) (int64, int64, error) {
		var ok, fail atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cli, err := server.Dial(addr)
				if err != nil {
					return
				}
				defer cli.Close()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := 1 + rng.Intn(cfg.Keys)
					_, err := cli.Exec(fmt.Sprintf(`UPDATE bal SET qty = qty + 1 WHERE id = %d`, id))
					if err == nil {
						ok.Add(1)
					} else if server.IsRetryable(err) {
						fail.Add(1)
					} else {
						return // transport or unexpected error: stop this worker
					}
				}
			}(w)
		}
		time.Sleep(cfg.Phase)
		close(stop)
		wg.Wait()
		if cfg.Logf != nil {
			cfg.Logf("%s: %d ok, %d failed in %v", tag, ok.Load(), fail.Load(), cfg.Phase)
		}
		return ok.Load(), fail.Load(), nil
	}

	okN, _, err := phase("healthy")
	if err != nil {
		return res, err
	}
	res.HealthyOps = okN
	res.HealthyPerSec = float64(okN) / cfg.Phase.Seconds()

	victim := cfg.Shards - 1
	if err := node.HaltShard(victim); err != nil {
		return res, err
	}
	okN, failN, err := phase(fmt.Sprintf("1-of-%d-down", cfg.Shards))
	if err != nil {
		return res, err
	}
	res.DegradedOps = okN
	res.DegradedPerSec = float64(okN) / cfg.Phase.Seconds()
	res.DownFailures = failN

	if err := node.RestartShard(victim); err != nil {
		return res, fmt.Errorf("restart shard %d: %w", victim, err)
	}
	if got := node.Engine(victim).HealthState(); got != core.StateHealthy {
		return res, fmt.Errorf("shard %d restarted %v, want healthy", victim, got)
	}
	if res.HealthyOps == 0 || res.DegradedOps == 0 {
		return res, fmt.Errorf("vacuous measurement: %+v", res)
	}
	return res, nil
}
