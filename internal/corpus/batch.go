package corpus

import (
	"context"
	"iter"
	"runtime"
	"sync"
)

// Job is one (document, query) evaluation of a batch: the document
// snapshot plus the index of the prepared query in the batch's query set.
type Job struct {
	Doc   Doc
	Query int
}

// Jobs expands a document snapshot into the document-major job list for a
// batch over queries prepared queries: all queries of doc 0, then all of
// doc 1, and so on. Workers pick jobs off this list in order, so
// neighboring workers tend to share a document's index working set.
func Jobs(docs []Doc, queries int) []Job {
	jobs := make([]Job, 0, len(docs)*queries)
	for _, d := range docs {
		for q := 0; q < queries; q++ {
			jobs = append(jobs, Job{Doc: d, Query: q})
		}
	}
	return jobs
}

// Result carries one job's outcome of a batch.
type Result[J, T any] struct {
	// Job is the job this result answers.
	Job J
	// Value is the evaluation result when Err is nil.
	Value T
	// Err is the per-job error: a cancellation error, or whatever eval
	// reported (e.g. core.ErrNotMonadic on a node-mode batch).
	Err error
}

// Run fans eval across jobs with a bounded worker pool and streams
// results in completion order (submission order when workers <= 1). The
// returned iterator is single-use. Jobs are opaque to Run: the corpus
// batch API passes document-major Jobs, the server its cache misses.
//
// workers <= 0 means GOMAXPROCS; when min(workers, len(jobs)) <= 1, Run
// evaluates inline on the consumer's goroutine, otherwise that many
// goroutines evaluate concurrently. Scratch reuse is the callee's
// concern: core.Prepared pools evaluation scratch internally, so a worker
// that evaluates many documents against the same prepared query keeps
// hitting warm buffers.
//
// Cancellation: eval receives a context derived from ctx that is also
// cancelled when the consumer breaks out of the iteration, so in-flight
// evaluations stop at their next cancellation check and the pool always
// joins before the iterator returns. Jobs already dispatched report the
// cancellation error their evaluation returned; jobs not yet dispatched
// when ctx dies are never started and produce no result.
func Run[J, T any](ctx context.Context, workers int, jobs []J, eval func(ctx context.Context, j J) (T, error)) iter.Seq[Result[J, T]] {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		return func(yield func(Result[J, T]) bool) {
			for _, j := range jobs {
				if ctx.Err() != nil {
					return
				}
				v, err := eval(ctx, j)
				if !yield(Result[J, T]{Job: j, Value: v, Err: err}) {
					return
				}
			}
		}
	}
	return func(yield func(Result[J, T]) bool) {
		if ctx.Err() != nil {
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		jobCh := make(chan J)
		resCh := make(chan Result[J, T])
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobCh {
					// Deadline promptness: a job picked up after the batch
					// died reports the cancellation without paying for an
					// evaluation whose result would be discarded — the
					// worker is free to drain and join immediately, which
					// is what releases server-side capacity under load.
					if err := ctx.Err(); err != nil {
						resCh <- Result[J, T]{Job: j, Err: err}
						continue
					}
					v, err := eval(ctx, j)
					// The send never blocks indefinitely: the consumer
					// either reads resCh or, after an early exit, drains it
					// until the pool joins — so every finished evaluation's
					// result is delivered even when cancellation races it.
					resCh <- Result[J, T]{Job: j, Value: v, Err: err}
				}
			}()
		}
		go func() {
			defer close(jobCh)
			for _, j := range jobs {
				// Checked before the select: when both channels are ready
				// the select would pick randomly, dispatching work under a
				// context that is already dead.
				if ctx.Err() != nil {
					return
				}
				select {
				case jobCh <- j:
				case <-ctx.Done():
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(resCh)
		}()

		for r := range resCh {
			if !yield(r) {
				cancel()
				// Drain so the workers' sends never block; they exit on
				// ctx.Done or jobCh close, and the closer then closes resCh.
				for range resCh {
				}
				return
			}
		}
	}
}
