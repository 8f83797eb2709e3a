package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent callers of one key run f once and all share its value.
func TestMemoSingleFlight(t *testing.T) {
	var tab memoTable[string, int]
	var calls atomic.Int32
	start := make(chan struct{})
	got := make([]int, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := tab.entry("k").do(func() (int, error) {
				return int(calls.Add(1)) * 7, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("f ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != 7 {
			t.Errorf("caller %d saw %d, want 7", i, v)
		}
	}
}

// An error is memoized like a value: a second do does not call f.
func TestMemoCachesError(t *testing.T) {
	var tab memoTable[int, float64]
	boom := errors.New("boom")
	calls := 0
	f := func() (float64, error) {
		calls++
		return 0, boom
	}
	for i := 0; i < 2; i++ {
		if _, err := tab.entry(1).do(f); !errors.Is(err, boom) {
			t.Fatalf("do #%d: err = %v, want boom", i+1, err)
		}
	}
	if calls != 1 {
		t.Errorf("f ran %d times, want 1", calls)
	}
}

// done answers only for a finished, error-free entry, and never
// creates one.
func TestMemoDone(t *testing.T) {
	var tab memoTable[string, int]
	if _, ok := tab.done("absent"); ok {
		t.Error("done reported an absent key")
	}
	if len(tab.m) != 0 {
		t.Errorf("done created %d entries", len(tab.m))
	}

	release := make(chan struct{})
	running := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tab.entry("slow").do(func() (int, error) {
			close(running)
			<-release
			return 42, nil
		})
	}()
	<-running
	if _, ok := tab.done("slow"); ok {
		t.Error("done reported an entry whose f is still running")
	}
	close(release)
	<-finished
	if v, ok := tab.done("slow"); !ok || v != 42 {
		t.Errorf("done after success = (%d, %t), want (42, true)", v, ok)
	}

	tab.entry("bad").do(func() (int, error) { return 1, errors.New("bad") })
	if _, ok := tab.done("bad"); ok {
		t.Error("done reported a failed entry")
	}
}
