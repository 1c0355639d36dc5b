package fleet

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/rng"
)

// chaosDraw is one lease's fault decisions.
type chaosDraw struct {
	crash, hang, panic_, corrupt bool
}

// chaosInjector holds the per-kind streams of a chaos.Worker scenario.
// Each kind draws from its own generator every lease whether or not it
// fires, in fixed order, so one fault kind's rate never shifts
// another's sequence and a fleet drill replays identically — the same
// stream-independence discipline as chaos.Injector.
type chaosInjector struct {
	cfg chaos.Worker

	mu                           sync.Mutex
	crash, hang, panic_, corrupt *rng.RNG
}

func newChaosInjector(cfg chaos.Worker) *chaosInjector {
	return &chaosInjector{
		cfg:     cfg,
		crash:   rng.New(rng.Mix(cfg.Seed, 0x9b1a4ef382cd03d1)),
		hang:    rng.New(rng.Mix(cfg.Seed, 0xc53f8a260de974b3)),
		panic_:  rng.New(rng.Mix(cfg.Seed, 0x3d70b9e61f28ac55)),
		corrupt: rng.New(rng.Mix(cfg.Seed, 0x61ec25d8b49f0737)),
	}
}

// draw rolls every fault kind for one lease.
func (ci *chaosInjector) draw() chaosDraw {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	return chaosDraw{
		crash:   ci.crash.Bool(ci.cfg.CrashRate),
		hang:    ci.hang.Bool(ci.cfg.HangRate),
		panic_:  ci.panic_.Bool(ci.cfg.PanicRate),
		corrupt: ci.corrupt.Bool(ci.cfg.CorruptRate),
	}
}
