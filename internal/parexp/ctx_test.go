package parexp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCtxCancelBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := New(workers).ForEachCtx(ctx, 100, func(context.Context, int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Fatalf("workers=%d: fn ran under a pre-cancelled ctx", workers)
		}
	}
}

// TestForEachCtxCancelMidRun cancels from inside item 0 while item 1 is the
// only other in-flight item (workers=2). Both in-flight items complete —
// item 1 unblocks via the derived ctx — and no further items are claimed,
// so exactly two items execute.
func TestForEachCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	siblingUp := make(chan struct{})
	var executed atomic.Int64
	err := New(2).ForEachCtx(ctx, 1000, func(c context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			<-siblingUp // ensure item 1 is in flight before cancelling
			cancel()
			return nil
		}
		close(siblingUp)
		<-c.Done() // sibling: wait for the cancellation to reach us
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("%d items executed after mid-run cancel, want exactly the 2 in flight", got)
	}
}

// TestForEachCtxPanicCancelsSiblings: shard 0 panics only after shard 1 is
// definitely running; shard 1 blocks until the panic's cancellation reaches
// it through the derived ctx. The pool must drain with exactly those two
// items executed and report the panic with shard attribution.
func TestForEachCtxPanicCancelsSiblings(t *testing.T) {
	siblingUp := make(chan struct{})
	var executed atomic.Int64
	err := New(2).ForEachCtx(context.Background(), 1000, func(c context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			<-siblingUp
			panic("boom")
		}
		close(siblingUp)
		<-c.Done()
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Shard != 0 || pe.Value != "boom" {
		t.Fatalf("PanicError = shard %d value %v, want shard 0 \"boom\"", pe.Shard, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError captured no stack")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error %q lacks shard attribution", err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("%d items executed after panic, want 2", got)
	}
}

func TestForEachCtxSerialPanicToError(t *testing.T) {
	var executed int
	err := New(1).ForEachCtx(context.Background(), 10, func(_ context.Context, i int) error {
		executed++
		if i == 3 {
			panic(fmt.Errorf("wrapped %d", i))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Shard != 3 {
		t.Fatalf("err = %v, want PanicError for shard 3", err)
	}
	if executed != 4 {
		t.Fatalf("%d items executed, want 4 (panic stops the serial loop)", executed)
	}
}

func TestForEachCtxErrorPropagation(t *testing.T) {
	sentinel := errors.New("shard failure")
	for _, workers := range []int{1, 4} {
		err := New(workers).ForEachCtx(context.Background(), 8, func(_ context.Context, i int) error {
			if i == 5 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "shard 5") {
			t.Fatalf("workers=%d: error %q lacks shard attribution", workers, err)
		}
	}
}

// TestForEachCtxDeadlineExpiry pins the watchdog behavior: items that poll
// the derived ctx return once the deadline passes and the engine reports
// DeadlineExceeded without deadlocking.
func TestForEachCtxDeadlineExpiry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := New(4).ForEachCtx(ctx, 4, func(c context.Context, i int) error {
		<-c.Done() // a shard that outlives any deadline
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestForEachCtxZeroItems(t *testing.T) {
	if err := New(4).ForEachCtx(context.Background(), 0, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ran := false
	err := New(4).ForEachCtx(context.Background(), -5, func(context.Context, int) error {
		ran = true
		return nil
	})
	if err != nil || ran {
		t.Fatalf("n=-5: err %v, fn ran %v", err, ran)
	}
}

func TestMapCtxDiscardsPartialResultsOnError(t *testing.T) {
	out, err := MapCtx(New(2), context.Background(), 8, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, error)", out, err)
	}
}
