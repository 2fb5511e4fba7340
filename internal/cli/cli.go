// Package cli implements the command language of the btrimcli shell: a
// tiny, testable interpreter over the public btrim API. The shell
// speaks the SQL subset from internal/sql (SELECT/INSERT/UPDATE/DELETE/
// BEGIN/COMMIT/...) through one sql.Session — the same language
// btrimcli -connect sends to a server — plus a handful of admin
// meta-commands (tables, stats, pin, unpin, checkpoint) that act on the
// local database directly.
package cli

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/btrim"
	"repro/internal/sql"
)

// Shell interprets commands against one database.
type Shell struct {
	db   *btrim.DB
	sess *sql.Session
	out  io.Writer
}

// New builds a shell over db writing to out.
func New(db *btrim.DB, out io.Writer) *Shell {
	return &Shell{db: db, sess: sql.NewSession(sql.Wrap(db)), out: out}
}

// Close rolls back any open transaction block.
func (s *Shell) Close() { s.sess.Close() }

// Exec runs one command line: a meta-command if the first word names
// one, otherwise a SQL statement.
func (s *Shell) Exec(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToLower(fields[0]) {
	case "help":
		s.help()
		return nil
	case "tables":
		return s.tables()
	case "stats":
		return s.stats()
	case "pin":
		return s.pin(fields[1:])
	case "unpin":
		if len(fields) != 2 {
			return fmt.Errorf("usage: unpin <table>")
		}
		return s.db.UnpinTable(fields[1])
	case "checkpoint":
		return s.db.Checkpoint()
	}
	res, err := s.sess.Exec(line)
	if err != nil {
		return err
	}
	PrintResult(s.out, res)
	return nil
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `SQL statements:
  create table <t> (<col> <int|float|string|bytes>, ..., primary key (<cols>))
  insert into <t> [(cols)] values (...), (...)
  select <cols|*> from <t> [where <col> <op> <lit> [and ...]] [limit n]
  update <t> set <col> = <lit | col +|- lit> [where ...]
  delete from <t> [where ...]
  begin / commit / rollback          explicit transaction block
  show tables
admin commands (local database only):
  tables                          list tables and where their rows live
  stats                           engine-wide IMRS/pack statistics
  pin <t> in|out                  force a table fully in/out of memory
  unpin <t>
  checkpoint
  quit
`)
}

// PrintResult renders one SQL statement result; shared by the local
// shell and btrimcli's remote mode.
func PrintResult(w io.Writer, res *sql.Result) {
	if res.Cols != nil {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(res.Cols, "\t"))
		for _, r := range res.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Fprintln(tw, strings.Join(parts, "\t"))
		}
		tw.Flush()
		fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))
		return
	}
	switch res.Msg {
	case "INSERT", "UPDATE", "DELETE":
		fmt.Fprintf(w, "%s %d\n", res.Msg, res.Affected)
	default:
		fmt.Fprintln(w, res.Msg)
	}
}

func (s *Shell) tables() error {
	parts := s.db.Stats().Partitions
	sort.Slice(parts, func(i, j int) bool { return parts[i].Name < parts[j].Name })
	tw := tabwriter.NewWriter(s.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "table\tIMRS-rows\tIMRS-KB\treuse-ops\tpage-ops\tpacked\tenabled")
	for _, p := range parts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			p.Name, p.IMRSRows, p.IMRSBytes/1024, p.ReuseOps(), p.PageOps, p.PackedRows, p.InsertEnabled)
	}
	return tw.Flush()
}

func (s *Shell) stats() error {
	st := s.db.Stats()
	fmt.Fprintf(s.out, "IMRS: %d rows, %d/%d KB (%.0f%%), hit rate %.1f%%\n",
		st.IMRSRows, st.IMRSUsedBytes/1024, st.IMRSCapacity/1024,
		100*float64(st.IMRSUsedBytes)/float64(st.IMRSCapacity),
		100*st.IMRSHitRate())
	fmt.Fprintf(s.out, "pack: %d rows (%d KB) packed, %d hot rows skipped\n",
		st.RowsPacked, st.BytesPacked/1024, st.RowsSkipped)
	return nil
}

func (s *Shell) pin(toks []string) error {
	if len(toks) != 2 || (toks[1] != "in" && toks[1] != "out") {
		return fmt.Errorf("usage: pin <table> in|out")
	}
	return s.db.PinTable(toks[0], toks[1] == "in")
}
