package btrim_test

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/btrim"
	"repro/internal/core"
)

// rollupRule checks one non-sum field of the node rollup. node is the
// rollup's value, shards the shards' values in shard order, and sibling
// reads another field of the same rollup struct by name.
type rollupRule struct {
	rule  string
	check func(node reflect.Value, shards []reflect.Value, sibling func(name string) reflect.Value) bool
}

// rollupRules lists every field of core.Snapshot that the rollup does
// not sum, by path with list keys elided ("Partitions[].ID"). Every
// other field must equal the sum over the shards, so a field added
// without a merge rule fails TestRollupRulesCoverEveryField.
var rollupRules = map[string]rollupRule{
	"CommitTS":                   maxRule,
	"TSFTau":                     maxRule,
	"AcceptNewRows":              anyRule,
	"LastCheckpointError":        {"first non-empty", firstNonEmpty},
	"SysLog.MeanGroupSize":       ratioRule("GroupedCommits", "GroupFlushes"),
	"SysLog.GroupSizeP95":        maxRule,
	"SysLog.CommitWaitMean":      maxRule,
	"SysLog.CommitWaitP95":       maxRule,
	"IMRSLog.MeanGroupSize":      ratioRule("GroupedCommits", "GroupFlushes"),
	"IMRSLog.GroupSizeP95":       maxRule,
	"IMRSLog.CommitWaitMean":     maxRule,
	"IMRSLog.CommitWaitP95":      maxRule,
	"Recovery.Ran":               anyRule,
	"Recovery.Threads":           maxRule,
	"Recovery.Total":             {"slowest shard's, or the node's open time, which is no less", atLeastMax},
	"Recovery.Phases[].Workers":  maxRule,
	"Partitions[].ID":            firstRule,
	"Partitions[].InsertEnabled": anyRule,
	"Indexes[].Unique":           firstRule,
	"Indexes[].HashLoadFactor":   ratioRule("HashEntries", "HashBuckets"),
}

var (
	maxRule = rollupRule{"largest shard value", func(n reflect.Value, sh []reflect.Value, _ func(string) reflect.Value) bool {
		return num(n) == maxOf(sh)
	}}
	atLeastMax = func(n reflect.Value, sh []reflect.Value, _ func(string) reflect.Value) bool {
		return num(n) >= maxOf(sh)
	}
	anyRule = rollupRule{"OR of the shards' flags", func(n reflect.Value, sh []reflect.Value, _ func(string) reflect.Value) bool {
		set := false
		for _, v := range sh {
			set = set || v.Bool()
		}
		return n.Bool() == set
	}}
	firstRule = rollupRule{"first shard's", func(n reflect.Value, sh []reflect.Value, _ func(string) reflect.Value) bool {
		return reflect.DeepEqual(n.Interface(), sh[0].Interface())
	}}
)

func firstNonEmpty(n reflect.Value, sh []reflect.Value, _ func(string) reflect.Value) bool {
	for _, v := range sh {
		if v.String() != "" {
			return n.String() == v.String()
		}
	}
	return n.String() == ""
}

// ratioRule: the field is recomputed from two summed fields beside it.
func ratioRule(num, den string) rollupRule {
	return rollupRule{"ratio of " + num + " to " + den, func(n reflect.Value, _ []reflect.Value, sibling func(string) reflect.Value) bool {
		nv, dv := sibling(num), sibling(den)
		if dv.Int() == 0 {
			return n.Float() == 0
		}
		return n.Float() == float64(nv.Int())/float64(dv.Int())
	}}
}

func num(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint())
	}
	return v.Float()
}

func maxOf(vs []reflect.Value) float64 {
	m := num(vs[0])
	for _, v := range vs[1:] {
		m = max(m, num(v))
	}
	return m
}

// leaves flattens a snapshot into its scalar fields by path. Lists are
// keyed by what the rollup merges them by: partitions and phases by
// name, indexes by table and name, latch-wait levels by level. Health
// is one leaf: the rollup takes it whole from the worst shard.
func leaves(t *testing.T, s core.Snapshot) map[string]reflect.Value {
	out := make(map[string]reflect.Value)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch {
		case path == "Health":
			out[path] = v
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				switch {
				case !f.IsExported():
				case f.Anonymous:
					walk(path, v.Field(i))
				case path == "":
					walk(f.Name, v.Field(i))
				default:
					walk(path+"."+f.Name, v.Field(i))
				}
			}
		case v.Kind() == reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				e, key := v.Index(i), fmt.Sprint(i)
				if e.Kind() == reflect.Struct {
					key = e.FieldByName("Name").String()
					if tbl := e.FieldByName("Table"); tbl.IsValid() {
						key = tbl.String() + "." + key
					}
				}
				walk(fmt.Sprintf("%s[%s]", path, key), e)
			}
		case v.Kind() >= reflect.Bool && v.Kind() <= reflect.Float64, v.Kind() == reflect.String:
			out[path] = v
		default:
			t.Fatalf("%s: no rollup rule for a %s", path, v.Kind())
		}
	}
	walk("", reflect.ValueOf(s))
	return out
}

func show(vs []reflect.Value) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v.Interface()
	}
	return out
}

var listKey = regexp.MustCompile(`\[[^\]]*\]`)

// checkRollupRules asserts that node is the rollup of shards: every
// field is the sum over the shards unless rollupRules names its rule.
func checkRollupRules(t *testing.T, node core.Snapshot, shards []core.Snapshot) {
	t.Helper()
	got := leaves(t, node)
	per := make([]map[string]reflect.Value, len(shards))
	for i, s := range shards {
		per[i] = leaves(t, s)
		for path := range per[i] {
			if _, ok := got[path]; !ok {
				t.Errorf("shard %d has %s, the rollup does not", i, path)
			}
		}
	}
	worst := core.WorstHealth(len(shards), func(i int) core.HealthState { return shards[i].Health.State })
	for path, n := range got {
		pattern := listKey.ReplaceAllString(path, "[]")
		if pattern == "Health" {
			if !reflect.DeepEqual(node.Health, shards[worst].Health) {
				t.Errorf("Health = %+v, want the worst shard's (%d) %+v", node.Health, worst, shards[worst].Health)
			}
			continue
		}
		if pattern == "Recovery.Phases[].Name" || pattern == "Partitions[].Name" ||
			pattern == "Indexes[].Name" || pattern == "Indexes[].Table" {
			continue // the keys the lists merge by
		}
		var vals []reflect.Value
		for _, m := range per {
			if v, ok := m[path]; ok {
				vals = append(vals, v)
			}
		}
		if r, ok := rollupRules[pattern]; ok {
			parent := path[:strings.LastIndexByte(path, '.')+1]
			sibling := func(name string) reflect.Value { return got[parent+name] }
			if !r.check(n, vals, sibling) {
				t.Errorf("%s = %v, want the %s; shards have %v", path, n, r.rule, show(vals))
			}
			continue
		}
		switch n.Kind() {
		case reflect.Bool, reflect.String:
			t.Errorf("%s: a %s has no sum; give it a rule", path, n.Kind())
			continue
		}
		var sum float64
		for _, v := range vals {
			sum += num(v)
		}
		if num(n) != sum {
			t.Errorf("%s = %v, want the sum over the shards %v (%v)", path, num(n), sum, show(vals))
		}
	}
}

// TestStatsRollupComplete: on a three-shard node after cross-shard
// writes, every field of the rolled-up snapshot follows its rule.
func TestStatsRollupComplete(t *testing.T) {
	db := openDB(t, btrim.Config{Shards: 3})
	if err := db.CreateTable(accountsSpec()); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, 60)
	for round := 0; round < 3; round++ {
		err := db.Update(func(tx *btrim.Tx) error {
			for i := int64(1); i <= 60; i += 7 {
				if _, err := tx.Update("accounts", []btrim.Value{btrim.Int64(i)}, func(r btrim.Row) (btrim.Row, error) {
					r[2] = btrim.Float64(r[2].Float() + 1)
					return r, nil
				}); err != nil {
					return err
				}
			}
			_, err := tx.LookupAll("accounts", "accounts_owner", btrim.String("owner-1"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.CrossShardCommits == 0 || s.IMRSRows != 60 {
		t.Fatalf("cross-shard commits = %d, IMRS rows = %d: the workload did not run", s.CrossShardCommits, s.IMRSRows)
	}
	checkRollupRules(t, s.Snapshot, s.Shards)
}

// TestRollupRulesCoverEveryField feeds core.Rollup three snapshots in
// which every field holds a distinct non-zero value, so a field the
// rollup leaves out, or merges by a rule rollupRules does not name,
// fails here even when a live node reads zero for it.
func TestRollupRulesCoverEveryField(t *testing.T) {
	per := make([]core.Snapshot, 3)
	for i := range per {
		seq := 0
		fill(reflect.ValueOf(&per[i]).Elem(), i, &seq)
	}
	checkRollupRules(t, core.Rollup(per), per)
}

// fill sets every exported field of v: numbers to a value distinct per
// field and per shard, flags true on shard 1 only, strings (and so the
// list keys) the same on every shard, and two entries in each list.
func fill(v reflect.Value, shard int, seq *int) {
	*seq++
	n := *seq*10 + shard + 1
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(int64(n), 0)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), shard, seq)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), shard, seq)
		}
	case reflect.Bool:
		v.SetBool(shard == 1)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *seq))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n))
	default:
		panic("fill: no value for a " + v.Kind().String())
	}
}
