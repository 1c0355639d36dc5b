package space

// Iterator walks every configuration of a space lazily in odometer order:
// the first configuration is all-zeros and the LAST parameter's level index
// advances fastest, exactly matching the order Enumerate materializes. It
// exists so callers can stream arbitrarily large spaces (up to 10^18+
// points) one configuration at a time without ever holding the pool in
// memory. The iterator is deterministic: any interleaving of
// Next calls — one at a time, or shard-sized bursts — yields the identical
// sequence as a single pass.
//
// An Iterator is not safe for concurrent use; give each goroutine its own
// or coordinate externally.
type Iterator struct {
	s       *Space
	cur     Config
	started bool
	done    bool
}

// Iter returns a fresh iterator positioned before the first configuration.
func (s *Space) Iter() *Iterator {
	return &Iterator{s: s, cur: make(Config, len(s.params))}
}

// Next writes the next configuration into dst (which must have length
// NumParams) and reports whether one was produced. After it returns false
// the iterator stays exhausted.
func (it *Iterator) Next(dst Config) bool {
	if it.done {
		return false
	}
	if !it.started {
		it.started = true
		copy(dst, it.cur)
		return true
	}
	i := len(it.cur) - 1
	for i >= 0 {
		it.cur[i]++
		if it.cur[i] < it.s.params[i].NumLevels() {
			break
		}
		it.cur[i] = 0
		i--
	}
	if i < 0 {
		it.done = true
		return false
	}
	copy(dst, it.cur)
	return true
}
