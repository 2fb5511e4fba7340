// Command btrimcli is an interactive shell over a BTrim database — the
// quickest way to poke at the hybrid store by hand.
//
//	btrimcli [-dir /path/to/db] [-imrs-mb 64]      local, in-process
//	btrimcli -connect host:4810                    remote, against btrimd
//
// Both modes speak the SQL subset (`help` inside the local shell lists
// it); the local mode adds admin meta-commands (tables, stats, pin,
// unpin, checkpoint) that act on the in-process database. -dir opens
// whatever shard count the directory already holds. The remote mode
// sends each line over the wire protocol; each btrimcli process is one
// server session with its own transaction state.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/btrim"
	"repro/internal/cli"
	"repro/internal/server"
)

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	imrsMB := flag.Int64("imrs-mb", 64, "IMRS cache size (MB)")
	connect := flag.String("connect", "", "btrimd address (host:port); empty = local in-process database")
	flag.Parse()

	var exec func(line string) error
	if *connect != "" {
		c, err := server.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer c.Close()
		fmt.Printf("btrim shell — connected to %s, `quit` to exit\n", *connect)
		exec = func(line string) error {
			res, err := c.Exec(line)
			if err != nil {
				return err
			}
			cli.PrintResult(os.Stdout, res)
			return nil
		}
	} else {
		db, err := btrim.Open(btrim.Config{Dir: *dir, IMRSCacheBytes: *imrsMB << 20})
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		defer db.Close()
		sh := cli.New(db, os.Stdout)
		defer sh.Close()
		fmt.Println("btrim shell — `help` for commands, `quit` to exit")
		exec = sh.Exec
	}

	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			if err := exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("> ")
	}
}
