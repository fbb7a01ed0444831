// Package par is the repository's single deterministic-concurrency
// primitive: a bounded worker pool whose results are merged in task-index
// order, so every computation built on it is byte-identical regardless of
// GOMAXPROCS, worker count, or goroutine scheduling.
//
// The determinism contract has three legs (DESIGN.md §9):
//
//   - Tasks are pure functions of their index. A task may not read or
//     write state shared with other tasks; anything random it needs is
//     derived from a per-task seed (Seed/RNG, SplitMix64 substreams of
//     one root seed), never from a captured generator.
//   - Results are merged in index order. Map returns a slice indexed by
//     task; Stream delivers results to the consumer strictly in index
//     order, whatever order the workers finish in.
//   - Cancellation is cooperative. Tasks receive the pool context and
//     are expected to return early (possibly with a partial result) when
//     it is cancelled; the pool itself stops dispatching new tasks.
//
// This package is the only place in the module allowed to start
// goroutines or use sync.WaitGroup — the sddlint `concurrency` analyzer
// enforces that boundary.
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a reusable degree-of-parallelism setting. The zero value and
// nil are both usable and mean "one worker per available CPU".
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	return &Pool{workers: workers}
}

// Workers returns the effective worker count (always >= 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// taskPanic carries a panic out of a worker goroutine so it can be
// rethrown on the caller's goroutine, where the caller's deferred
// recovery (e.g. experiment.recoverStage) can see it.
type taskPanic struct {
	value any
	stack []byte
}

// Unwrap exposes the original panic value — callers recovering a
// rethrown worker panic can type-assert against taskPanic via Value.
func (tp taskPanic) Value() any { return tp.value }

// Stack returns the worker goroutine's stack at the point of the panic.
func (tp taskPanic) Stack() []byte { return tp.stack }

func (tp taskPanic) String() string {
	return "par: task panic: " + stringify(tp.value) + "\n" + string(tp.stack)
}

func stringify(v any) string {
	switch v := v.(type) {
	case error:
		return v.Error()
	case string:
		return v
	}
	return "non-string panic value"
}

// Map runs task(ctx, i) for every i in [0, n) on the pool's workers and
// returns the results merged in index order. The first error by task
// index wins (later results are still computed but discarded), matching
// what a sequential loop would report. A task panic is captured on the
// worker and rethrown on the calling goroutine once all workers have
// stopped. Map itself never inspects ctx: tasks own cancellation and
// decide whether a cancelled context is an error (resp.BuildObsCtx)
// or a partial result (the restart driver uses Stream instead).
func Map[T any](ctx context.Context, p *Pool, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	panics := make([]*taskPanic, n)
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		// Sequential fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			v, err := protect(ctx, i, task, &panics[i])
			if panics[i] != nil {
				panic(*panics[i])
			}
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	var next int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				v, err := protect(ctx, i, task, &panics[i])
				results[i], errs[i] = v, err
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(*panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// protect runs one task, converting a panic into a recorded taskPanic.
func protect[T any](ctx context.Context, i int, task func(ctx context.Context, i int) (T, error), sink **taskPanic) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			*sink = &taskPanic{value: r, stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}

// Stream runs task(ctx, i) for i = 0, 1, 2, ... up to limit tasks,
// delivering each result to consume strictly in index order. When
// consume returns false no further indices are dispatched; tasks already
// in flight run to completion (they see the cancelled stream through
// ctx only if the caller cancels it) and their results are discarded.
// Workers speculate at most a bounded distance past the oldest
// unconsumed index, so a stop wastes at most ~2×workers tasks.
//
// Stream returns the number of results consumed. It exists for
// sequential-equivalent search loops (Procedure 1 restarts): the
// consumer folds results exactly as the one-worker loop would, so the
// outcome is independent of the worker count; speculation only trades
// wasted work for wall-clock time.
func Stream[T any](ctx context.Context, p *Pool, limit int, task func(ctx context.Context, i int) T, consume func(i int, v T) bool) int {
	if limit <= 0 {
		return 0
	}
	w := p.Workers()
	if w > limit {
		w = limit
	}
	if w == 1 {
		consumed := 0
		for i := 0; i < limit; i++ {
			var tp *taskPanic
			v := protectValue(ctx, i, task, &tp)
			if tp != nil {
				panic(*tp)
			}
			consumed++
			if !consume(i, v) {
				break
			}
		}
		return consumed
	}

	type slot struct {
		v  T
		tp *taskPanic
	}
	// tickets bounds speculation: a worker must hold a ticket to claim an
	// index, and the coordinator issues a new ticket per consumed result.
	capacity := 2 * w
	if capacity > limit {
		capacity = limit
	}
	tickets := make(chan struct{}, capacity)
	for i := 0; i < capacity; i++ {
		tickets <- struct{}{}
	}
	done := make(chan struct{})
	type indexed struct {
		i int
		s slot
	}
	out := make(chan indexed, capacity)

	var next int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case _, ok := <-tickets:
					if !ok {
						return
					}
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= limit {
					return
				}
				var s slot
				s.v = protectValue(ctx, i, task, &s.tp)
				select {
				case out <- indexed{i, s}:
				case <-done:
					return
				}
			}
		}()
	}

	pending := make(map[int]slot)
	consumed, expect := 0, 0
	var rethrow *taskPanic
coordinate:
	for expect < limit {
		in, ok := <-out
		if !ok {
			break
		}
		pending[in.i] = in.s
		for {
			s, ok := pending[expect]
			if !ok {
				continue coordinate
			}
			delete(pending, expect)
			if s.tp != nil {
				rethrow = s.tp
				break coordinate
			}
			consumed++
			more := consume(expect, s.v)
			expect++
			if !more || expect >= limit {
				break coordinate
			}
			select {
			case tickets <- struct{}{}:
			default:
			}
		}
	}
	close(done)
	wg.Wait()
	if rethrow != nil {
		panic(*rethrow)
	}
	return consumed
}

func protectValue[T any](ctx context.Context, i int, task func(ctx context.Context, i int) T, sink **taskPanic) (v T) {
	defer func() {
		if r := recover(); r != nil {
			*sink = &taskPanic{value: r, stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}
