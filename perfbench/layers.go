package main

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count      int     `json:"count"`
	TotalMs    float64 `json:"total_ms"`
	MeanMs     float64 `json:"mean_ms"`
	MeanSelfMs float64 `json:"mean_self_ms"`
}

// aggregated is a traced run's spans summarised per name, plus the commit
// decomposition of every write request.
type aggregated struct {
	byName map[string]spanSummary
	// For each delete or restore: the engine call's latency, the summed
	// replayed layer times, and their difference (the commit residual:
	// lock, fan-out, publish and whatever else no replayed layer covers).
	writeEngine, writeLayers, residual []float64
	// layerPerWrite is each replayed layer's time summed over all writes,
	// divided by the number of writes.
	layerPerWrite map[string]float64
}

// notEngineWork names replayed spans that measure something the engine
// did not do, and so stay out of the commit decomposition.
var notEngineWork = map[string]bool{"provenance.maint_delete_serial": true}

func aggregate(spans []span) aggregated {
	self := selfTimes(spans)
	agg := aggregated{byName: map[string]spanSummary{}, layerPerWrite: map[string]float64{}}
	for i, s := range spans {
		sum := agg.byName[s.Name]
		sum.Count++
		sum.TotalMs += s.ms()
		sum.MeanSelfMs += float64(self[i]) / 1e6 // a total until divided below
		agg.byName[s.Name] = sum
	}
	for name, sum := range agg.byName {
		sum.MeanMs = sum.TotalMs / float64(sum.Count)
		sum.MeanSelfMs /= float64(sum.Count)
		agg.byName[name] = sum
	}

	// Pair each write's engine span with its replay's children.
	type key struct{ client, op int }
	engineMs := map[key]float64{}
	replayRoot := map[int]key{}
	for i, s := range spans {
		switch s.Name {
		case "engine.delete", "engine.restore":
			engineMs[key{s.Client, s.Op}] = s.ms()
		case "replay.delete", "replay.restore":
			replayRoot[i] = key{s.Client, s.Op}
		}
	}
	layers := map[key]float64{}
	perLayer := map[string]float64{}
	for _, s := range spans {
		k, ok := replayRoot[s.Parent]
		if !ok || notEngineWork[s.Name] {
			continue
		}
		layers[k] += s.ms()
		perLayer[s.Name] += s.ms()
	}
	for k, e := range engineMs {
		l := layers[k]
		agg.writeEngine = append(agg.writeEngine, e)
		agg.writeLayers = append(agg.writeLayers, l)
		agg.residual = append(agg.residual, e-l)
	}
	if n := float64(len(engineMs)); n > 0 {
		for name, total := range perLayer {
			agg.layerPerWrite[name] = total / n
		}
	}
	return agg
}

func (a aggregated) mean(name string) float64  { return a.byName[name].MeanMs }
func (a aggregated) total(name string) float64 { return a.byName[name].TotalMs }

// layerMetrics maps span aggregates and shadow counts to the per-layer
// metrics. Set-up layers are totals over the views a run prepares (the
// store snapshot is a mean per copy); request layers are means over the
// requests that ran them, so they add up along a request.
func layerMetrics(a aggregated, c layerCounts) map[string]metric {
	ms := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"algebra.plan_ms":                   ms(a.total("algebra.plan")),
		"relation.freeze_ms":                ms(a.mean("relation.freeze")),
		"relation.derive_delete_ms":         ms(a.mean("relation.derive_delete")),
		"relation.derive_insert_ms":         ms(a.mean("relation.derive_insert")),
		"relation.sort_ms":                  ms(a.mean("relation.sort")),
		"provenance.compute_ms":             ms(a.total("provenance.compute")),
		"provenance.maint_delete_ms":        ms(a.mean("provenance.maint_delete")),
		"provenance.maint_insert_ms":        ms(a.mean("provenance.maint_insert")),
		"provenance.maint_delete_serial_ms": ms(a.mean("provenance.maint_delete_serial")),
		"parallel.intra_speedup":            {ratio(a.mean("provenance.maint_delete_serial"), a.mean("provenance.maint_delete")), "ratio"},
		"provenance.witness_walk_ms":        ms(a.mean("provenance.witness_walk")),
		"annotation.where_build_ms":         ms(a.total("annotation.where_build")),
		"annotation.where_rebuild_ms":       ms(a.mean("annotation.where_rebuild")),
		"annotation.rebuild_ratio":          {ratio(float64(c.rebuilds), float64(c.annotates)), "ratio"},
		"annotation.place_ms":               ms(a.mean("annotation.place")),
		"annotation.side_effects":           {ratio(float64(c.sideEffects), float64(c.annotates)), "count"},
		"annotation.where_maint_ms":         ms(a.mean("annotation.where_maint")),
		"annotation.where_touched":          {ratio(float64(c.whereTouched), float64(c.deletes)), "count"},
		"deletion.validate_ms":              ms(a.mean("deletion.validate")),
		"deletion.solve_view_ms":            ms(a.mean("deletion.solve_view")),
		"deletion.solve_source_ms":          ms(a.mean("deletion.solve_source")),
		"deletion.solve_greedy_ms":          ms(a.mean("deletion.solve_greedy")),
		"deletion.deleted_per_target":       {ratio(float64(c.deleted), float64(c.targets)), "count"},
		"deletion.exact_ratio":              {ratio(float64(c.exact), float64(c.deletes)), "ratio"},
		"engine.commit_residual_ms":         ms(mean(a.residual)),
	}
}

// decomposition reports the commit decomposition per write request: each
// replayed layer's share, the residual, and their sum next to the traced
// engine latency it must equal.
func decomposition(a aggregated) map[string]metric {
	out := map[string]metric{
		"write.engine_ms":               {mean(a.writeEngine), "ms"},
		"write.residual_ms":             {mean(a.residual), "ms"},
		"write.layers_plus_residual_ms": {mean(a.writeLayers) + mean(a.residual), "ms"},
		"write.count":                   {float64(len(a.writeEngine)), "count"},
	}
	for name, v := range a.layerPerWrite {
		out["write."+name+"_ms"] = metric{v, "ms"}
	}
	return out
}
