package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fanoutProbe counts the calls of a Fanout and the most that ran at once.
type fanoutProbe struct {
	calls, active, peak atomic.Int64
}

func (p *fanoutProbe) enter() {
	p.calls.Add(1)
	n := p.active.Add(1)
	for {
		m := p.peak.Load()
		if n <= m || p.peak.CompareAndSwap(m, n) {
			return
		}
	}
}

func (p *fanoutProbe) leave() { p.active.Add(-1) }

// TestFanoutCallsEveryIndexOnce: every index runs exactly once, on no more
// goroutines than asked for.
func TestFanoutCallsEveryIndexOnce(t *testing.T) {
	const n, workers = 200, 3
	var p fanoutProbe
	var seen [n]atomic.Int32
	err := Fanout(n, workers, func(i int) error {
		p.enter()
		defer p.leave()
		seen[i].Add(1)
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d called %d times", i, got)
		}
	}
	if peak := p.peak.Load(); peak > workers {
		t.Fatalf("%d calls ran at once, want ≤ %d", peak, workers)
	}
}

// TestFanoutDefaultWidth: workers ≤ 0 runs DefaultConfWorkers calls at once
// (the first calls wait until that many are running) and never more.
func TestFanoutDefaultWidth(t *testing.T) {
	want := int64(DefaultConfWorkers())
	for _, workers := range []int{0, -1} {
		var p fanoutProbe
		err := Fanout(64, workers, func(i int) error {
			p.enter()
			defer p.leave()
			for deadline := time.Now().Add(5 * time.Second); p.calls.Load() < want; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return errors.New("fewer calls than DefaultConfWorkers ever ran at once")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := p.calls.Load(); got != 64 {
			t.Fatalf("workers %d: %d calls, want 64", workers, got)
		}
		if peak := p.peak.Load(); peak > want {
			t.Fatalf("workers %d: %d calls ran at once, want ≤ DefaultConfWorkers %d", workers, peak, want)
		}
	}
}

// TestFanoutEmpty: nothing to do is not an error and calls nothing.
func TestFanoutEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Fanout(0, workers, func(int) error { panic("called") }); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}

// TestFanoutStopsOnError: the first failure stops further claims — once it
// is published, each worker starts at most the one call it had claimed
// before it looked — and is what Fanout returns. Counting from the
// publication, not from the failing call, keeps a failing worker that is
// descheduled between its call and the publication from counting against
// the bound.
func TestFanoutStopsOnError(t *testing.T) {
	const n, workers = 10000, 2
	boom := errors.New("boom")
	var published atomic.Bool
	var after atomic.Int64
	err := fanout(n, workers, func(i int) error {
		if published.Load() {
			after.Add(1)
		}
		if i == 3 {
			return boom
		}
		return nil
	}, func() { published.Store(true) })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the failing call's error", err)
	}
	if !published.Load() {
		t.Fatal("the failure was never published")
	}
	if got := after.Load(); got > workers-1 {
		t.Fatalf("%d calls started after the failure was published, want at most %d", got, workers-1)
	}
}

// TestFanoutContainsPanic: a panicking call fails the fan-out with an error
// naming its index; the process (and this test) survive it, on the caller's
// goroutine and on a pool goroutine alike.
func TestFanoutContainsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Fanout(10, workers, func(i int) error {
			if i == 7 {
				panic("poisoned")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "call 7") || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("workers %d: got %v, want an error naming call 7 and the panic", workers, err)
		}
	}
}
