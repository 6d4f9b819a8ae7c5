package parexp

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a shard panic converted to an error by ForEachCtx: the
// shard index attributes the failure to one work item of the fixed shard
// plan, and Stack preserves the goroutine stack at the panic site.
type PanicError struct {
	// Shard is the work-item index whose fn panicked.
	Shard int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parexp: shard %d panicked: %v", e.Shard, e.Value)
}

// ForEachCtx is the engine's one worker-pool loop: it runs fn(ctx, i) once
// for every i in [0, n) across the pool, claiming items from an atomic
// counter (workers == 1 runs them inline, in order), with three duties:
//
//   - Cooperative cancellation. Workers stop claiming new items as soon as
//     ctx is cancelled (or its deadline expires); items already executing
//     run to completion unless fn itself observes the ctx it is handed.
//     ForEachCtx then returns ctx.Err() — completed items are NOT undone,
//     which is exactly what checkpointed shard runs need: every shard that
//     finished before the cancel was already flushed.
//   - Error propagation. The first non-nil error from fn cancels the ctx
//     passed to sibling invocations and is returned, wrapped with its shard
//     index.
//   - Panic recovery. A panic in fn becomes a *PanicError carrying the
//     shard index and stack, and cancels siblings the same way.
//
// The ctx handed to fn is derived from the caller's: long-running shards
// should poll it (or pass it down) so cancellation is prompt rather than
// shard-granular. For an error-free fn and an uncancelled ctx every item
// runs once with the same inputs, so every result is independent of the
// worker count.
func (e *Engine) ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	work := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if err := fn(cctx, i); err != nil {
			return fmt.Errorf("parexp: shard %d: %w", i, err)
		}
		return nil
	}

	w := e.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if cctx.Err() != nil {
				break
			}
			if err := work(i); err != nil {
				fail(err)
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if cctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := work(i); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// MapCtx runs fn(ctx, i) for every i in [0, n) through ForEachCtx and
// returns the results in index order. Because the returned slice is ordered
// by shard index, folding it left-to-right gives a deterministic merge
// regardless of which worker finished first; fn must therefore be
// self-contained per item (own rng stream, own simulator). On cancellation,
// error, or panic the partial results are discarded and only the error is
// returned.
func MapCtx[T any](e *Engine, ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.ForEachCtx(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
