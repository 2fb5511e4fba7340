package chaos

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/row"
)

var soak = []string{"calm", "transient-device", "transient-wal", "log-death", "crash-recover"}

// wire is today's full-stack run: SQL over TCP while a shard halts, a
// coordinator dies before its decide, a participant after it, and
// clients hang up mid-transaction.
var wire = []string{"shard-halt", "coordinator-crash-before-decide", "participant-crash-after-decide", "conn-drop"}

// halfTransfer is a test-only scenario: it debits one account with no
// matching credit, as a half-applied cross-shard transfer would, and
// taints it, so that only the conservation check can see it.
func halfTransfer(h *harness) error {
	tx := h.node.Begin()
	if _, err := tx.Update(table, pk(1), func(r row.Row) (row.Row, error) {
		r[2] = row.Int64(r[2].Int() - 1)
		return r, nil
	}); err != nil {
		tx.Abort()
		return err
	}
	h.m.taint[1] = true
	return tx.Commit()
}

func init() {
	scenarios = append(scenarios, scenario{"half-transfer", false, false, halfTransfer})
}

// TestChaos runs each named schedule and asserts, per row, that the
// faults it exists for actually fired (the counters in need are > 0).
// Alternate seeds take a different path through the same schedule and
// run outside -short mode only.
func TestChaos(t *testing.T) {
	engine := "Recoveries ReadOnlyEvents TransientFaults Commits RowsVerified"
	node := "CrossCommits SurvivorCommits DeadShardFailures HealthyPerSec DegradedPerSec"
	net := "Commits RetryableErrors PartialSelects ShardRestarts Redials"
	for _, tc := range []struct {
		name    string
		cfg     Config
		alt     bool
		need    string
		wantErr string
	}{
		{"soak/seed=1", Config{Seed: 1, Scenarios: soak, Cycles: 200}, false, engine, ""},
		{"soak/seed=42", Config{Seed: 42, Scenarios: soak, Cycles: 100}, true, engine, ""},
		{"shard-halt/seed=1", Config{Seed: 1, Scenarios: []string{"shard-halt"}}, false, node, ""},
		{"shard-halt/seed=42", Config{Seed: 42, Scenarios: []string{"shard-halt"}}, true, node, ""},
		{"wire/seed=1", Config{Seed: 1, Scenarios: wire}, false, net, ""},
		{"wire/seed=7", Config{Seed: 7, Scenarios: wire}, true, net, ""},
		{"all/seed=1", Config{Seed: 1, Scenarios: append(append([]string{}, soak...), wire...), Cycles: 18}, false, engine + " " + node + " " + net, ""},
		{"half-transfer", Config{Seed: 1, Scenarios: []string{"half-transfer"}}, false, "", "total balance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.alt && testing.Short() {
				t.Skip("short mode: one seed per schedule")
			}
			tc.cfg.Logf = t.Logf
			res, err := Run(tc.cfg)
			t.Logf("%+v", res)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			v := reflect.ValueOf(res)
			for _, f := range strings.Fields(tc.need) {
				if x := v.FieldByName(f); x.IsZero() {
					t.Errorf("vacuous run: %s = 0", f)
				}
			}
		})
	}
}

func TestParseScenarios(t *testing.T) {
	got, err := ParseScenarios(" calm,shard-halt ,,conn-drop")
	if err != nil || !reflect.DeepEqual(got, []string{"calm", "shard-halt", "conn-drop"}) {
		t.Fatalf("ParseScenarios = %v, %v", got, err)
	}
	for _, bad := range []string{"calm,bogus", "", " , "} {
		if _, err := ParseScenarios(bad); err == nil || !strings.Contains(err.Error(), "participant-crash-after-decide") {
			t.Errorf("ParseScenarios(%q) = %v, want an error listing the valid names", bad, err)
		}
	}
}
