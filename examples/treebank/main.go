// Command treebank runs the paper's computational-linguistics workload
// (Fig. 1): on a synthetic phrase-structure corpus, find prepositional
// phrases following noun phrases within the same sentence,
//
//	Q(z) ← S(x), Child+(x, y), NP(y), Child+(x, z), PP(z), Following(y, z)
//
// comparing the general engine with evaluation of the acyclic translation.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	cqtrees "repro"
	"repro/internal/rewrite"
	"repro/internal/treebank"
)

func main() {
	sentences := flag.Int("sentences", 128, "number of corpus sentences")
	seed := flag.Int64("seed", 1, "corpus seed")
	flag.Parse()

	corpus := treebank.Generate(treebank.Config{
		Sentences: *sentences, MaxDepth: 6, Seed: *seed,
	})
	st := corpus.Summarize()
	fmt.Printf("corpus: %d sentences, %d nodes, max depth %d, %d NPs, %d PPs\n",
		st.Sentences, st.Nodes, st.MaxDepth, st.NPCount, st.PPCount)

	q := rewrite.Figure1Query()
	fmt.Println("query:", q)

	// Prepare once: classification and planning are query-only work; the
	// prepared query then evaluates against any number of trees.
	t0 := time.Now()
	pq := cqtrees.MustPrepare(q)
	prepTime := time.Since(t0)
	fmt.Printf("plan:  %v (prepared in %v)\n", pq.Plan(), prepTime)

	t0 = time.Now()
	answers, err := pq.NodesErr(cqtrees.Index(corpus.Combined))
	direct := time.Since(t0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndirect evaluation: %d matching PPs in %v\n", len(answers), direct)

	// Theorem 6.10 route: translate once, evaluate the acyclic union.
	t1 := time.Now()
	apq, err := rewrite.TranslateCQ(q, rewrite.Options{})
	if err != nil {
		log.Fatal(err)
	}
	translation := time.Since(t1)
	t2 := time.Now()
	viaAPQ := apq.EvalAll(corpus.Combined)
	apqTime := time.Since(t2)
	fmt.Printf("APQ route: %d disjuncts (translated in %v), evaluation %v, %d answers\n",
		len(apq.Disjuncts), translation, apqTime, len(viaAPQ))

	if len(viaAPQ) != len(answers) {
		log.Fatalf("BUG: APQ answers (%d) differ from direct (%d)", len(viaAPQ), len(answers))
	}
	fmt.Println("\nboth strategies agree — sample matches:")
	tr := corpus.Combined
	for i, z := range answers {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(answers)-5)
			break
		}
		fmt.Printf("  PP node %d (depth %d, subtree of %d nodes)\n",
			z, tr.Depth(z), tr.SubtreeSize(z))
	}
}
