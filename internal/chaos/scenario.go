package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Grammar is the scenario specification accepted by Parse, for -h texts.
const Grammar = `comma-separated key=value fields (or "none"):
  err=RATE           transient-failure probability per evaluation
  hang=RATE          indefinite-hang probability (needs a -timeout to survive)
  panic=RATE         evaluator-panic probability
  corrupt=RATE[xF]   label-corruption probability, multiplying the label by F (default 10)
  lat=RATE:DUR       latency-spike probability and duration (Go duration, e.g. 50ms)
  seed=N             fault-stream seed (default 0)
e.g. "err=0.1,hang=0.01,corrupt=0.05x10,lat=0.2:20ms,seed=7"`

// WorkerGrammar is the Worker specification accepted by ParseWorker,
// e.g. "hang=0.05:2s,panic=0.02,corrupt=0.1,seed=7".
const WorkerGrammar = "crash=RATE,hang=RATE[:DUR],panic=RATE,corrupt=RATE,seed=N"

// Parse builds a Scenario from its textual form (see Grammar). The empty
// string and "none" parse to the inactive zero scenario.
func Parse(spec string) (Scenario, error) {
	var sc Scenario
	if strings.TrimSpace(spec) == "none" {
		return sc, nil
	}
	err := fields(spec, func(key, val string) (err error) {
		switch key {
		case "err":
			sc.ErrRate, err = parseRate(val)
		case "hang":
			sc.HangRate, err = parseRate(val)
		case "panic":
			sc.PanicRate, err = parseRate(val)
		case "corrupt":
			rate, factor, cut := strings.Cut(val, "x")
			if sc.CorruptRate, err = parseRate(rate); err == nil && cut {
				sc.CorruptFactor, err = strconv.ParseFloat(factor, 64)
				if err == nil && sc.CorruptFactor <= 0 {
					err = fmt.Errorf("factor %v not positive", sc.CorruptFactor)
				}
			}
		case "lat":
			rate, dur, cut := strings.Cut(val, ":")
			if !cut {
				return fmt.Errorf("lat needs RATE:DUR, got %q", val)
			}
			if sc.LatencyRate, err = parseRate(rate); err == nil {
				sc.Latency, err = time.ParseDuration(dur)
			}
		case "seed":
			sc.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return fmt.Errorf("unknown field %q (want err, hang, panic, corrupt, lat or seed)", key)
		}
		return err
	})
	return sc, err
}

// ParseWorker builds a Worker scenario from its textual form (see
// WorkerGrammar). The empty string parses to the inactive zero value.
func ParseWorker(spec string) (Worker, error) {
	var w Worker
	err := fields(spec, func(key, val string) (err error) {
		switch key {
		case "crash":
			w.CrashRate, err = parseRate(val)
		case "hang":
			rate, dur, cut := strings.Cut(val, ":")
			if w.HangRate, err = parseRate(rate); err == nil && cut {
				w.HangFor, err = time.ParseDuration(dur)
			}
		case "panic":
			w.PanicRate, err = parseRate(val)
		case "corrupt":
			w.CorruptRate, err = parseRate(val)
		case "seed":
			w.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return fmt.Errorf("unknown field %q (grammar: %s)", key, WorkerGrammar)
		}
		return err
	})
	return w, err
}

// fields calls set on each key=value field of a comma-separated spec,
// skipping empty fields.
func fields(spec string, set func(key, val string) error) error {
	for _, field := range strings.Split(strings.TrimSpace(spec), ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("chaos: field %q is not key=value", field)
		}
		if err := set(key, val); err != nil {
			return fmt.Errorf("chaos: field %q: %v", field, err)
		}
	}
	return nil
}

// parseRate parses a probability in [0, 1].
func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", v)
	}
	return v, nil
}

// String renders the scenario in the grammar Parse accepts; the zero
// scenario renders as "none".
func (s Scenario) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("err", s.ErrRate)
	add("hang", s.HangRate)
	add("panic", s.PanicRate)
	if s.CorruptRate > 0 {
		f := s.CorruptFactor
		if f <= 0 {
			f = 10
		}
		parts = append(parts, fmt.Sprintf("corrupt=%vx%v", s.CorruptRate, f))
	}
	if s.LatencyRate > 0 && s.Latency > 0 {
		parts = append(parts, fmt.Sprintf("lat=%v:%v", s.LatencyRate, s.Latency))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
