package main

import "time"

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// spanIndex groups a traced pass's spans for the per-layer analysis.
type spanIndex struct {
	byID   map[spanID]span
	byName map[string][]span
	// child maps a parent span to its children of one name.
	child map[spanID]map[string][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byID: map[spanID]span{}, byName: map[string][]span{}, child: map[spanID]map[string][]span{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			m := ix.child[s.Parent]
			if m == nil {
				m = map[string][]span{}
				ix.child[s.Parent] = m
			}
			m[s.Name] = append(m[s.Name], s)
		}
	}
	return ix
}

// meanMs is the mean duration of the named spans in ms, 0 if none.
func (ix *spanIndex) meanMs(name string) float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		xs = append(xs, msOf(s.dur()))
	}
	return mean(xs)
}

// meanAttr is the mean of an attribute over the named spans.
func (ix *spanIndex) meanAttr(name, attr string) float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		xs = append(xs, float64(s.Attrs[attr]))
	}
	return mean(xs)
}

// perUnit counts the named spans whose group is a completed unit and
// divides by the number of completed units.
func (ix *spanIndex) perUnit(name string, done map[string]string) float64 {
	if len(done) == 0 {
		return 0
	}
	n := 0
	for _, s := range ix.byName[name] {
		if _, ok := done[s.Group]; ok {
			n++
		}
	}
	return float64(n) / float64(len(done))
}

// serveLayers pairs every client request with the handler span it caused
// and with the twin step of the same session and sequence number.
func serveLayers(_, traced *passResult, spans []span) map[string]float64 {
	ix := indexSpans(spans)
	type stepKey struct {
		group string
		seq   int64
	}
	core := map[string]map[stepKey]span{"ask": {}, "tell": {}}
	for op := range core {
		for _, s := range ix.byName["core."+op] {
			core[op][stepKey{s.Group, s.Attrs["seq"]}] = s
		}
	}
	var transport, codec []float64
	for _, op := range []string{"ask", "tell"} {
		for _, c := range ix.byName["client."+op] {
			hs := ix.child[c.ID]["server."+op]
			if len(hs) != 1 {
				continue
			}
			h := hs[0]
			transport = append(transport, msOf(c.dur()-h.dur()))
			if t, ok := core[op][stepKey{c.Group, c.Attrs["seq"]}]; ok {
				codec = append(codec, msOf(h.dur()-t.dur()))
			}
		}
	}
	var sel, scan []float64
	for _, s := range ix.byName["pool.scan"] {
		sel = append(sel, float64(s.Attrs["select_ns"])/1e6)
		scan = append(scan, msOf(s.dur())-float64(s.Attrs["select_ns"])/1e6)
	}
	var source []float64
	for _, s := range ix.byName["core.ask"] {
		source = append(source, float64(s.Attrs["source_ns"])/1e6)
	}
	return map[string]float64{
		"server.ask_handler_ms":     ix.meanMs("server.ask"),
		"server.tell_handler_ms":    ix.meanMs("server.tell"),
		"server.transport_ms":       mean(transport),
		"server.codec_ms":           mean(codec),
		"server.ask_resp_bytes":     ix.meanAttr("client.ask", "resp_bytes"),
		"server.tell_req_bytes":     ix.meanAttr("client.tell", "req_bytes"),
		"core.ask_ms":               ix.meanMs("core.ask"),
		"core.tell_ms":              ix.meanMs("core.tell"),
		"core.select_ms":            mean(sel),
		"pool.scan_ms":              mean(scan),
		"pool.source_ms":            mean(source),
		"pool.candidates_per_ask":   ix.meanAttr("pool.scan", "candidates"),
		"forest.fit_ms":             ix.meanMs("forest.fit"),
		"forest.fits":               ix.perUnit("forest.fit", traced.outputs),
		"runstate.checkpoint_ms":    ix.meanMs("runstate.checkpoint"),
		"runstate.checkpoint_bytes": ix.meanAttr("runstate.checkpoint", "bytes"),
	}
}
