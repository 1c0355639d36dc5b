package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/space"
)

// countingEval returns 1, 2, 3, ... so tests can observe exactly how many
// measurements the injector consumed from the wrapped evaluator.
type countingEval struct{ calls int }

func (e *countingEval) Evaluate(ctx context.Context, c space.Config) (float64, error) {
	e.calls++
	return float64(e.calls), nil
}

func testConfig() space.Config { return space.Config{0} }

// faultTrace replays an injector against a benign evaluator and records
// which fault (if any) fired on each call. ctx is pre-cancelled so hangs
// return immediately.
func faultTrace(t *testing.T, sc Scenario, seed uint64, calls int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inj := New(sc, seed, &countingEval{})
	var trace []string
	for i := 0; i < calls; i++ {
		trace = append(trace, oneCall(ctx, inj))
	}
	return trace
}

// oneCall classifies a single Evaluate outcome, recovering panics.
func oneCall(ctx context.Context, inj *Injector) (kind string) {
	before := inj.Stats()
	defer func() {
		if v := recover(); v != nil {
			kind = "panic"
		}
	}()
	_, err := inj.Evaluate(ctx, testConfig())
	after := inj.Stats()
	switch {
	case after.Hangs > before.Hangs:
		return "hang"
	case errors.Is(err, ErrInjected):
		return "err"
	case after.Corruptions > before.Corruptions:
		return "corrupt"
	case err != nil:
		return "other-error"
	default:
		return "ok"
	}
}

func TestInjectorDeterminism(t *testing.T) {
	sc := Scenario{ErrRate: 0.3, HangRate: 0.1, PanicRate: 0.1, CorruptRate: 0.2, CorruptFactor: 8}
	a := faultTrace(t, sc, 7, 400)
	b := faultTrace(t, sc, 7, 400)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %s vs %s — fault sequence not reproducible", i, a[i], b[i])
		}
	}
	kinds := map[string]int{}
	for _, k := range a {
		kinds[k]++
	}
	for _, want := range []string{"err", "hang", "panic", "corrupt", "ok"} {
		if kinds[want] == 0 {
			t.Fatalf("400 calls at these rates never produced %q: %v", want, kinds)
		}
	}
	if kinds["other-error"] != 0 {
		t.Fatalf("unexpected non-injected errors: %v", kinds)
	}
	c := faultTrace(t, sc, 8, 400)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestInjectedErrorPreservesInnerStream is the property the equivalence
// gate rests on: a transient injected failure must not consume the
// wrapped evaluator, so the retry sees the exact measurement the fault
// displaced.
func TestInjectedErrorPreservesInnerStream(t *testing.T) {
	inner := &countingEval{}
	inj := New(Scenario{ErrRate: 0.5}, 3, inner)
	ctx := context.Background()
	var got []float64
	for len(got) < 50 {
		y, err := inj.Evaluate(ctx, testConfig())
		if errors.Is(err, ErrInjected) {
			continue // retry
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, y)
	}
	for i, y := range got {
		if y != float64(i+1) {
			t.Fatalf("label %d = %v, want %v: injected error consumed an inner measurement", i, y, i+1)
		}
	}
	if inner.calls != 50 {
		t.Fatalf("inner evaluator called %d times, want 50", inner.calls)
	}
	if inj.Stats().Errors == 0 {
		t.Fatal("scenario with ErrRate=0.5 injected no errors in 50+ calls")
	}
}

func TestHangBlocksUntilCancel(t *testing.T) {
	inj := New(Scenario{HangRate: 1}, 1, &countingEval{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := inj.Evaluate(ctx, testConfig())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hang returned before cancellation: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hang returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not return after cancellation")
	}
}

func TestCorruptionMultiplies(t *testing.T) {
	inner := core.EvaluatorFunc(func(ctx context.Context, c space.Config) (float64, error) {
		return 2, nil
	})
	inj := New(Scenario{CorruptRate: 1, CorruptFactor: 8}, 5, inner)
	y, err := inj.Evaluate(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if y != 16 {
		t.Fatalf("corrupted label %v, want 16", y)
	}
}

func TestLatencyDelays(t *testing.T) {
	inj := New(Scenario{LatencyRate: 1, Latency: 40 * time.Millisecond}, 2, &countingEval{})
	start := time.Now()
	if _, err := inj.Evaluate(context.Background(), testConfig()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("latency spike took %v, want >= 40ms", d)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"err=0.1",
		"err=0.1,hang=0.01,panic=0.002",
		"corrupt=0.05x12",
		"lat=0.2:50ms",
		"err=0.3,corrupt=0.1x10,lat=0.5:1s,seed=99",
	}
	for _, spec := range cases {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		back, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", sc.String(), err)
		}
		if back != sc {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", spec, sc, sc.String(), back)
		}
	}
	if sc, err := Parse(""); err != nil || sc.Active() {
		t.Fatalf("empty spec: %+v, %v", sc, err)
	}
	for _, bad := range []string{"bogus=1", "err=2", "err=-0.1", "lat=0.5", "corrupt=0.1x0", "err"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted invalid spec", bad)
		}
	}
}

func TestParseWorkerChaos(t *testing.T) {
	cases := []struct {
		spec string
		want Worker
		ok   bool
	}{
		{"", Worker{}, true},
		{"crash=0.01", Worker{CrashRate: 0.01}, true},
		{"hang=0.05:2s,panic=0.02,corrupt=0.1,seed=7",
			Worker{Seed: 7, HangRate: 0.05, HangFor: 2 * time.Second, PanicRate: 0.02, CorruptRate: 0.1}, true},
		{"hang=0.5", Worker{HangRate: 0.5}, true},
		{"crash=1.5", Worker{}, false},
		{"crash=-0.1", Worker{}, false},
		{"hang=0.1:xx", Worker{}, false},
		{"nonsense", Worker{}, false},
		{"bogus=0.1", Worker{}, false},
		{"seed=abc", Worker{}, false},
	}
	for _, tc := range cases {
		got, err := ParseWorker(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("ParseWorker(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseWorker(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}
