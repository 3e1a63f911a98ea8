package main

// metricDef is one metric the benchmark prints: its name, its unit and
// which direction is better. Units say which clock a time uses: s and
// ms are host time, sim_ns is simulated time.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, the same on every
// workload. wall_s is the median host time of one pass over the
// workload's fixed unit of work and alloc_mb the median bytes a pass
// allocates. An op is one experiment (paper-hot), one cell
// (hammer-campaign) or one batch (traffic-mixed).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run of hammer-campaign or
// traffic-mixed, named <module>.<boundary>.<stat>. Spans give calls
// and self_s; simulated counts come from the layers' own Stats. Each
// is per pass, plus the one set-up that precedes the passes. A layer a
// workload does not reach reads 0 there; layers.json says which
// workload loads which.
var perLayer = buildPerLayer()

// expLayer are the metrics of a traced run of paper-hot, whose layers
// are reached only from inside the experiments.
var expLayer = buildExpLayer()

// layerDefs returns the metrics a traced run of the workload prints.
func layerDefs(workload string) []metricDef {
	if workload == "paper-hot" {
		return expLayer
	}
	return perLayer
}

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, better})
		}
	}
	add("count", "lower", "memctrl.access.calls")
	add("s", "lower", "memctrl.access.self_s")
	add("1/s", "higher", "memctrl.accesses_per_s")
	add("count", "higher", "memctrl.row_hits")
	add("count", "lower", "memctrl.row_misses", "memctrl.row_conflicts", "memctrl.auto_refreshes", "memctrl.mit_refreshes")
	add("sim_ns", "lower", "memctrl.busy_ns", "memctrl.refresh_ns", "memctrl.mit_ns")
	add("s", "lower", "memctrl.shard.wall_s", "memctrl.shard.busy_s")
	add("ratio", "higher", "memctrl.shard.efficiency")
	for _, m := range []string{"para", "trr", "graphene", "twice", "anvil"} {
		p := "memctrl.mit." + m
		add("count", "lower", p+".on_activate.calls")
		add("s", "lower", p+".on_activate.self_s", p+".on_refresh.self_s")
		add("count", "lower", p+".refreshes")
	}
	add("count", "lower", "dram.activates", "dram.precharges", "dram.reads", "dram.writes", "dram.row_refreshes")
	add("s", "lower", "dram.arm.self_s", "dram.readback.self_s")
	add("count", "lower", "disturb.on_activate.calls")
	add("s", "lower", "disturb.on_activate.self_s")
	add("count", "lower", "disturb.pair_batch.calls", "disturb.pair_batch.acts")
	add("s", "lower", "disturb.pair_batch.self_s")
	add("count", "lower", "disturb.batchable_pair.calls", "disturb.batchable_pair.declines")
	add("ratio", "higher", "disturb.batched_act_share")
	add("s", "lower", "disturb.on_refresh.self_s", "disturb.bank_refresh.self_s")
	add("count", "lower", "disturb.flips")
	add("s", "lower", "retention.on_activate.self_s", "retention.on_refresh.self_s", "retention.bank_refresh.self_s")
	add("count", "lower", "retention.decays")
	add("count", "lower", "ecc.corrected", "ecc.detected", "ecc.silent", "ecc.scrub.words", "ecc.scrub.repairs")
	add("count", "lower", "snapshot.save.calls", "snapshot.save.bytes")
	add("s", "lower", "snapshot.save.self_s")
	add("count", "lower", "snapshot.load.calls")
	add("s", "lower", "snapshot.load.self_s")
	for _, a := range []string{"probe", "hammer_round", "observe"} {
		add("count", "lower", "attack."+a+".calls")
		add("s", "lower", "attack."+a+".self_s")
	}
	add("s", "lower", "attack.template.self_s")
	add("count", "lower", "workload.next.calls")
	add("s", "lower", "workload.next.self_s")
	add("s", "lower", "trace.overhead_s")
	return out
}

func buildExpLayer() []metricDef {
	var out []metricDef
	for _, e := range []string{"E5", "E21", "E73"} {
		out = append(out,
			metricDef{"exp." + e + ".allocs", "count", "lower"},
			metricDef{"exp." + e + ".alloc_mb", "MB", "lower"},
			metricDef{"exp." + e + ".wall_s", "s", "lower"})
	}
	return append(out, metricDef{"trace.overhead_s", "s", "lower"})
}

// layerValues turns a traced run's span aggregates and the layers' own
// per-pass values into the per-layer metrics. setup holds the spans of
// one traced set-up; passes those of all traced passes.
func layerValues(tr *tracer, setup, passes map[string]agg, nPasses int, layer map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range layer {
		v[k] = x
	}
	addSpans := func(spans map[string]agg, div float64) {
		for name, a := range spans {
			if tr.counters[name] {
				v[name] += float64(a.calls) / div
				continue
			}
			v[name+".calls"] += float64(a.calls) / div
			v[name+".self_s"] += float64(a.self) / 1e9 / div
			if name == "memctrl.shard" {
				v[name+".wall_s"] += float64(a.total) / 1e9 / div
				v[name+".busy_s"] += float64(a.busy) / 1e9 / div
			}
		}
	}
	addSpans(setup, 1)
	addSpans(passes, float64(nPasses))
	if wall := v["memctrl.shard.wall_s"]; wall > 0 {
		v["memctrl.shard.efficiency"] = v["memctrl.shard.busy_s"] / (wall * float64(shardWorkers()))
	}
	batched := v["disturb.pair_batch.acts"] + v["disturb.row_batch.acts"]
	if all := batched + v["disturb.on_activate.calls"]; all > 0 {
		v["disturb.batched_act_share"] = batched / all
	}
	return v
}
