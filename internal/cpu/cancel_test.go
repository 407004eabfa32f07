package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"malec/internal/config"
	"malec/internal/trace"
)

func cancelSource(benchmark string, seed uint64, n int) *GenSource {
	prof, ok := trace.Profiles[benchmark]
	if !ok {
		panic("unknown benchmark " + benchmark)
	}
	return &GenSource{Gen: trace.NewGenerator(prof, seed), N: n}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, config.Base1ldst(), "gzip", cancelSource("gzip", 1, 100000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, config.Base1ldst(), "mcf", cancelSource("mcf", 2, 20_000_000))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return within 10s")
	}
}

func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := config.Base1ldst()
	want := Run(cfg, "gzip", cancelSource("gzip", 3, 50000))
	got, err := RunContext(context.Background(), cfg, "gzip", cancelSource("gzip", 3, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.Energy != want.Energy || got.L1 != want.L1 || got.L2 != want.L2 {
		t.Fatalf("ctx run diverged from plain run:\n got %+v\nwant %+v", got, want)
	}
}

func TestSampledRunContextCancelled(t *testing.T) {
	cfg := config.Base1ldst()
	cfg.Sampling = &config.Sampling{Interval: 10000, Warmup: 500, Detail: 500}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWithCheckpointsContext(ctx, cfg, "gzip", cancelSource("gzip", 4, 100000), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGenSourceJoinedOnCancel cancels exact and sampled runs reading a
// generate-ahead GenSource: each returns context.Canceled with its
// producer already stopped, so no producer outlives the run.
func TestGenSourceJoinedOnCancel(t *testing.T) {
	sampled := config.MALEC()
	sampled.Sampling = &config.Sampling{Interval: 1_000_000, Warmup: 2000, Detail: 8000}
	for _, cfg := range []config.Config{config.MALEC(), sampled} {
		src := cancelSource("mcf", 2, 20_000_000)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := RunContext(ctx, cfg, "mcf", src)
		cancel()
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("sampled=%v: err = %v, want the context's error", cfg.Sampling != nil, err)
		}
		src.mu.Lock()
		running, produced := src.running, src.produced
		src.mu.Unlock()
		if running || produced == 0 {
			t.Fatalf("sampled=%v: producer running=%v after the run returned, %d records produced", cfg.Sampling != nil, running, produced)
		}
	}
}
