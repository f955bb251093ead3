package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd runs the CLI with args, returning its stdout.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

// TestFlagAndInputErrors: every misuse comes back as an error, not an
// exit or panic.
func TestFlagAndInputErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no tree", []string{"-query", "Q() <- A(x)"}},
		{"no query", []string{"-tree", "A(B)"}},
		{"tree and treefile", []string{"-tree", "A", "-treefile", "x.xml", "-query", "Q() <- A(x)"}},
		{"bad tree syntax", []string{"-tree", "A(", "-query", "Q() <- A(x)"}},
		{"bad query syntax", []string{"-tree", "A(B)", "-query", "nonsense"}},
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"-tree", "A(B)", "-query", "Q() <- A(x)", "stray"}},
		{"missing treefile", []string{"-treefile", "does-not-exist.term", "-query", "Q() <- A(x)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := runCmd(t, tc.args...); err == nil {
				t.Fatalf("args %v: no error", tc.args)
			}
		})
	}
}

// TestHelpFlag: -h surfaces flag.ErrHelp (main exits 0 on it, not 1).
func TestHelpFlag(t *testing.T) {
	if _, err := runCmd(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
}

// TestSingleQuery: the basic answer listing plus timings line.
func TestSingleQuery(t *testing.T) {
	out, err := runCmd(t,
		"-tree", "A(B,C(B))",
		"-query", "Q(y) <- A(x), Child+(x, y), B(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 answer(s):") {
		t.Errorf("missing answer count:\n%s", out)
	}
	if !strings.Contains(out, "B#1(depth 1)") || !strings.Contains(out, "B#3(depth 2)") {
		t.Errorf("missing node descriptions:\n%s", out)
	}
	if !strings.Contains(out, "timings: index=") || !strings.Contains(out, "(4 nodes, 1 queries)") {
		t.Errorf("missing timings line:\n%s", out)
	}
	// Single-query output has no per-query headers.
	if strings.Contains(out, "-- query") {
		t.Errorf("unexpected query header:\n%s", out)
	}
}

// TestMultiQueryOutput: repeated -query evaluates every query against the
// one shared document, with per-query headers in order.
func TestMultiQueryOutput(t *testing.T) {
	out, err := runCmd(t,
		"-tree", "A(B,C(B))",
		"-query", "Q(y) <- A(x), Child+(x, y), B(y)",
		"-query", "Q() <- A(x), Child(x, y), C(y)",
		"-query", "Q(y) <- C(x), Child(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-- query 1: Q(y) <- A(x), Child+(x, y), B(y)",
		"-- query 2: Q() <- A(x), Child(x, y), C(y)",
		"-- query 3: Q(y) <- C(x), Child(x, y)",
		"satisfiable: true", // the Boolean query
		"(4 nodes, 3 queries)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if i1, i2 := strings.Index(out, "-- query 1"), strings.Index(out, "-- query 2"); i1 > i2 {
		t.Errorf("query sections out of order:\n%s", out)
	}
}

// TestExplainAndTreefile: -explain prints the plan; -treefile loads term
// and XML files by extension.
func TestExplainAndTreefile(t *testing.T) {
	dir := t.TempDir()
	termFile := filepath.Join(dir, "doc.term")
	if err := os.WriteFile(termFile, []byte("A(B,C(B))"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t,
		"-treefile", termFile,
		"-explain",
		"-query", "Q(y) <- A(x), Child+(x, y), B(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan:") {
		t.Errorf("missing plan line:\n%s", out)
	}
	if !strings.Contains(out, "2 answer(s):") {
		t.Errorf("missing answers:\n%s", out)
	}

	xmlFile := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlFile, []byte("<a><b/><c><b/></c></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t,
		"-treefile", xmlFile,
		"-query", "Q(y) <- a(x), Child+(x, y), b(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 answer(s):") {
		t.Errorf("xml treefile answers:\n%s", out)
	}
}

// TestXPathAndAPQ: the rewriting flags render extra sections.
func TestXPathAndAPQ(t *testing.T) {
	out, err := runCmd(t,
		"-tree", "A(B,C(B))",
		"-apq", "-xpath",
		"-query", "Q(y) <- A(x), Child(x, y), B(y)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "APQ (") {
		t.Errorf("missing APQ section:\n%s", out)
	}
	if !strings.Contains(out, "XPath:") {
		t.Errorf("missing XPath section:\n%s", out)
	}
}

// TestSaveLoadIndex: -save-index dumps a snapshot, -load-index reuses it
// with identical answers; the flag conflicts and error paths hold.
func TestSaveLoadIndex(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "doc.cqs")
	query := "Q(y) <- A(x), Child+(x, y), B(y)"

	direct, err := runCmd(t, "-tree", "A(B,C(B))", "-query", query, "-save-index", snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(direct, "saved index snapshot: "+snap) {
		t.Fatalf("no save confirmation in output:\n%s", direct)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := runCmd(t, "-load-index", snap, "-query", query)
	if err != nil {
		t.Fatal(err)
	}
	// Same answer block; only the save line and timings may differ.
	wantAnswers := section(direct, "answer(s):")
	if got := section(loaded, "answer(s):"); got != wantAnswers || wantAnswers == "" {
		t.Fatalf("answers differ:\nsaved run:\n%s\nloaded run:\n%s", direct, loaded)
	}

	// A conversion-only run (no query) is valid with -save-index…
	if _, err := runCmd(t, "-tree", "A(B)", "-save-index", snap+"2"); err != nil {
		t.Fatal(err)
	}
	// …but -load-index still requires a query, conflicts with tree
	// sources, and rejects non-snapshot files.
	if _, err := runCmd(t, "-load-index", snap); err == nil {
		t.Fatal("load without query: no error")
	}
	if _, err := runCmd(t, "-load-index", snap, "-tree", "A(B)", "-query", "Q() <- A(x)"); err == nil {
		t.Fatal("load+tree conflict: no error")
	}
	notSnap := filepath.Join(t.TempDir(), "not.cqs")
	if err := os.WriteFile(notSnap, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "-load-index", notSnap, "-query", "Q() <- A(x)"); err == nil {
		t.Fatal("bogus snapshot: no error")
	}
}

// section returns out from the first line containing marker up to (not
// including) the timings line.
func section(out, marker string) string {
	lines := strings.Split(out, "\n")
	start := -1
	for i, l := range lines {
		if strings.Contains(l, marker) {
			start = i
			break
		}
	}
	if start < 0 {
		return ""
	}
	end := len(lines)
	for i := start; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "timings:") {
			end = i
			break
		}
	}
	return strings.Join(lines[start:end], "\n")
}
