// Command cqeval evaluates conjunctive queries against a tree.
//
// Usage:
//
//	cqeval -tree 'A(B,C(B))' -query 'Q(y) <- A(x), Child+(x, y), B(y)'
//	cqeval -treefile doc.xml -query '...' -query '...' [-explain] [-apq] [-xpath]
//	cqeval -treefile doc.xml -save-index doc.cqs            # dump a snapshot
//	cqeval -load-index doc.cqs -query '...'                 # reuse it: no parse, no index build
//
// Trees are given inline in term syntax (-tree), loaded from a file
// (-treefile; .xml files are parsed as XML, everything else as terms), or
// adopted from a binary index snapshot (-load-index; write one with
// -save-index).
// -query may repeat: the document is indexed once (cqtrees.Index) and every
// query evaluates against the shared Document through the iterator API,
// and its answers are sorted for deterministic output. Per-phase timings
// (index / prepare / execute) are reported at the end.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	cqtrees "repro"
)

// multiFlag collects repeated occurrences of a string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// errFlagParse marks flag-parse failures the FlagSet already reported to
// stderr (with usage); main exits nonzero without printing them twice.
var errFlagParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			// -h/-help: usage already printed; exit clean.
			return
		case errors.Is(err, errFlagParse):
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole command, separated from main for tests: args are the
// command-line arguments (without the program name), output goes to
// stdout, and every failure comes back as an error instead of exiting.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cqeval", flag.ContinueOnError)
	treeSrc := fs.String("tree", "", "tree in term syntax, e.g. A(B,C)")
	treeFile := fs.String("treefile", "", "file holding the tree (.xml or term syntax)")
	var querySrcs multiFlag
	fs.Var(&querySrcs, "query", "conjunctive query, e.g. Q(y) <- A(x), Child(x, y); may repeat")
	explain := fs.Bool("explain", false, "print each query's evaluation plan and classification")
	apq := fs.Bool("apq", false, "also print the equivalent acyclic positive queries (Thm 6.10)")
	asXPath := fs.Bool("xpath", false, "also print equivalent XPath expressions (monadic queries)")
	saveIndex := fs.String("save-index", "", "write the indexed document to this snapshot file")
	loadIndex := fs.String("load-index", "", "load the document from a snapshot file instead of parsing (-tree/-treefile)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("cqeval: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	// Phase 1: obtain the indexed document — parse + index once, or adopt
	// a snapshot (no parse, no index build; IndexLoadCount ticks instead).
	var (
		doc        *cqtrees.Document
		indexStart = time.Now()
	)
	if *loadIndex != "" {
		if *treeSrc != "" || *treeFile != "" {
			return fmt.Errorf("cqeval: -load-index replaces -tree/-treefile; use one")
		}
		var err error
		if doc, err = cqtrees.LoadDocumentFile(*loadIndex); err != nil {
			return fmt.Errorf("cqeval: load %s: %v", *loadIndex, err)
		}
	} else {
		t, err := loadTree(*treeSrc, *treeFile)
		if err != nil {
			return err
		}
		doc = cqtrees.Index(t)
	}
	indexDur := time.Since(indexStart)
	t := doc.Tree()

	if *saveIndex != "" {
		if err := cqtrees.SaveDocumentFile(*saveIndex, doc); err != nil {
			return fmt.Errorf("cqeval: save %s: %v", *saveIndex, err)
		}
		fmt.Fprintf(stdout, "saved index snapshot: %s (%d nodes)\n", *saveIndex, doc.Len())
		if len(querySrcs) == 0 {
			return nil // pure conversion run
		}
	}
	if len(querySrcs) == 0 {
		return fmt.Errorf("cqeval: at least one -query is required")
	}

	// Phase 2: compile each query once.
	prepareStart := time.Now()
	pqs := make([]*cqtrees.PreparedQuery, len(querySrcs))
	for i, src := range querySrcs {
		pq, err := cqtrees.Compile(src)
		if err != nil {
			return fmt.Errorf("cqeval: query %d: %v", i+1, err)
		}
		pqs[i] = pq
	}
	prepareDur := time.Since(prepareStart)

	// Phase 3: execute against the shared document.
	var executeDur time.Duration
	for i, pq := range pqs {
		if len(pqs) > 1 {
			fmt.Fprintf(stdout, "-- query %d: %s\n", i+1, querySrcs[i])
		}
		if *explain {
			fmt.Fprintln(stdout, "plan:", pq.Plan())
		}
		execStart := time.Now()
		var answers [][]cqtrees.NodeID
		for tuple := range pq.Tuples(doc) {
			answers = append(answers, tuple)
		}
		slices.SortFunc(answers, slices.Compare)
		executeDur += time.Since(execStart)
		if len(pq.Query().Head) == 0 {
			fmt.Fprintln(stdout, "satisfiable:", len(answers) > 0)
		} else {
			fmt.Fprintf(stdout, "%d answer(s):\n", len(answers))
			for _, tup := range answers {
				parts := make([]string, len(tup))
				for j, v := range tup {
					parts[j] = describe(t, v)
				}
				fmt.Fprintln(stdout, "  ", strings.Join(parts, ", "))
			}
		}
		if *apq {
			a, err := cqtrees.ToAPQ(pq.Query())
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nAPQ (%d disjuncts):\n%s\n", len(a.Disjuncts), a)
		}
		if *asXPath {
			exprs, err := cqtrees.ToXPath(pq.Query())
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "\nXPath:")
			for _, e := range exprs {
				fmt.Fprintln(stdout, "  ", e)
			}
		}
	}
	fmt.Fprintf(stdout, "timings: index=%v prepare=%v execute=%v (%d nodes, %d queries)\n",
		indexDur.Round(time.Microsecond), prepareDur.Round(time.Microsecond),
		executeDur.Round(time.Microsecond), doc.Len(), len(pqs))
	return nil
}

func loadTree(src, file string) (*cqtrees.Tree, error) {
	switch {
	case src != "" && file != "":
		return nil, fmt.Errorf("cqeval: use -tree or -treefile, not both")
	case src != "":
		return cqtrees.ParseTree(src)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(file, ".xml") {
			return cqtrees.ParseXML(f)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return cqtrees.ParseTree(string(data))
	default:
		return nil, fmt.Errorf("cqeval: -tree or -treefile is required")
	}
}

func describe(t *cqtrees.Tree, v cqtrees.NodeID) string {
	labels := t.Labels(v)
	name := "_"
	if len(labels) > 0 {
		name = strings.Join(labels, "|")
	}
	return fmt.Sprintf("%s#%d(depth %d)", name, v, t.Depth(v))
}
