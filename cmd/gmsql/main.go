// Command gmsql is an interactive SQL shell over a GenMapper database
// snapshot — direct access to the GAM relations (source, object,
// source_rel, object_rel) through the embedded engine.
//
// Usage:
//
//	gmsql -db gam.snap
//	gmsql -data-dir ./data            # durable: writes go through the WAL
//	echo "SELECT COUNT(*) FROM object" | gmsql -db gam.snap
//
// Meta commands: .tables, .schema <table>, .save [path], .wal, .quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"genmapper/internal/sqldb"
	"genmapper/internal/wal"
)

func main() {
	var (
		dbPath  = flag.String("db", "gam.snap", "database snapshot file (created on .save when missing; ignored with -data-dir)")
		dataDir = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); every write is crash-safe")
		fsync   = flag.String("fsync", "group", "WAL fsync policy with -data-dir: always, group, off")
		quiet   = flag.Bool("q", false, "suppress the prompt (for piped input)")
	)
	flag.Parse()

	var db *sqldb.DB
	switch {
	case *dataDir != "":
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmsql:", err)
			os.Exit(1)
		}
		db, err = sqldb.OpenDurable(*dataDir, sqldb.DurableOptions{Sync: policy})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmsql:", err)
			os.Exit(1)
		}
		defer db.Close()
		if !*quiet {
			ws := db.WALStats()
			fmt.Printf("opened durable %s (%d tables, %d log records replayed, fsync=%s)\n",
				*dataDir, len(db.TableNames()), ws.RecoveredRecords, *fsync)
		}
	default:
		if _, err := os.Stat(*dbPath); err == nil {
			loaded, err := sqldb.Load(*dbPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gmsql:", err)
				os.Exit(1)
			}
			db = loaded
			if !*quiet {
				fmt.Printf("loaded %s (%d tables)\n", *dbPath, len(db.TableNames()))
			}
		} else {
			db = sqldb.NewDB()
			if !*quiet {
				fmt.Printf("new empty database (will save to %s on .save)\n", *dbPath)
			}
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func(cont bool) {
		if *quiet {
			return
		}
		if cont {
			fmt.Print("   ...> ")
		} else {
			fmt.Print("gmsql> ")
		}
	}
	prompt(false)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if !metaCommand(db, *dbPath, trimmed) {
				return
			}
			prompt(false)
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") && trimmed != "" {
			prompt(true)
			continue
		}
		stmt := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmt != "" {
			execute(db, stmt)
		}
		prompt(false)
	}
}

// metaCommand handles dot commands; it returns false to exit.
func metaCommand(db *sqldb.DB, dbPath, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".tables":
		for _, name := range db.TableNames() {
			fmt.Printf("%-24s %d rows\n", name, db.RowCount(name))
		}
	case ".schema":
		if len(fields) < 2 {
			fmt.Println("usage: .schema <table>")
			break
		}
		schema := db.TableInfo(fields[1])
		if schema == nil {
			fmt.Printf("no such table %q\n", fields[1])
			break
		}
		for _, col := range schema.Columns {
			flags := ""
			if col.PrimaryKey {
				flags += " PRIMARY KEY"
			}
			if col.AutoIncrement {
				flags += " AUTOINCREMENT"
			}
			if col.NotNull {
				flags += " NOT NULL"
			}
			fmt.Printf("  %-20s %s%s\n", col.Name, col.Type, flags)
		}
	case ".save":
		path := dbPath
		if len(fields) > 1 {
			path = fields[1]
		}
		if err := db.Save(path); err != nil {
			fmt.Println("save failed:", err)
			break
		}
		fmt.Println("saved", path)
	case ".wal":
		ws := db.WALStats()
		if !ws.Enabled {
			fmt.Println("wal: disabled (open with -data-dir for durable writes)")
			break
		}
		fmt.Printf("wal: policy=%s appends=%d fsyncs=%d group_commits=%d max_group=%d\n",
			ws.Policy, ws.Appends, ws.Fsyncs, ws.GroupCommits, ws.MaxGroupSize)
		fmt.Printf("     segments=%d size=%dB checkpoint_lsn=%d lag=%d records recovered=%d torn=%d\n",
			ws.Segments, ws.SizeBytes, ws.CheckpointLSN, ws.CheckpointLagRecs, ws.RecoveredRecords, ws.TornTailTruncations)
	case ".checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("checkpoint failed:", err)
			break
		}
		fmt.Println("checkpointed at LSN", db.WALStats().CheckpointLSN)
	case ".help":
		fmt.Println("meta commands: .tables, .schema <table>, .save [path], .wal, .checkpoint, .quit")
	default:
		fmt.Printf("unknown meta command %s (try .help)\n", fields[0])
	}
	return true
}

func execute(db *sqldb.DB, stmt string) {
	stmt = strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		rs, err := db.Query(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if strings.HasPrefix(upper, "EXPLAIN") {
			// Plan renderings are pre-formatted lines; skip the table frame.
			for _, row := range rs.Rows {
				if s, ok := row[0].(string); ok {
					fmt.Println(s)
				}
			}
			return
		}
		printResult(rs)
		return
	}
	res, err := db.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
}

func printResult(rs *sqldb.ResultSet) {
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for r, row := range rs.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := sqldb.FormatValue(v)
			cells[r][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	line := func(parts []string) {
		var sb strings.Builder
		for i, p := range parts {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(p)
			for pad := len(p); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Println(strings.TrimRight(sb.String(), " "))
	}
	line(rs.Columns)
	sep := make([]string, len(rs.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range cells {
		line(row)
	}
	fmt.Printf("(%d rows)\n", len(rs.Rows))
}
