package metrics

import "encoding/json"

// CacheStats is one owner's reading of the decoded-cache rows of the
// scalar table (see scalars.go for what each counts) — the typed form
// run reports and worker summaries carry.
type CacheStats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Evictions       int64 `json:"evictions"`
	FramesRequested int64 `json:"frames_requested"`
	FramesDecoded   int64 `json:"frames_decoded"`
}

// fields lists the struct's fields in the table order of the cache
// rows: the one place the struct is tied to them (TestScalarTable holds
// it to the rows' keys).
func (s *CacheStats) fields() [5]*int64 {
	return [...]*int64{&s.Hits, &s.Misses, &s.Evictions, &s.FramesRequested, &s.FramesDecoded}
}

// CacheStats returns this set's share of the decoded-cache rows.
func (c *Set) CacheStats() CacheStats {
	var s CacheStats
	for i, f := range s.fields() {
		*f = c.Value(CacheHits + Scalar(i))
	}
	return s
}

// Merge adds o's counts into s: the coordinator's roll-up of its
// workers' caches.
func (s *CacheStats) Merge(o CacheStats) {
	from := o.fields()
	for i, f := range s.fields() {
		*f += *from[i]
	}
}

// HitRate returns the fraction of lookups served from the cache, or 0
// when there were none.
func (s CacheStats) HitRate() float64 {
	return fraction(s.Hits, s.Hits+s.Misses)
}

// Report serializes the stats as the decoded-cache section of the
// telemetry — the counts with their derived ratios, the form every JSON
// artifact embeds.
func (s CacheStats) Report() json.RawMessage {
	var v values
	for i, f := range s.fields() {
		v[CacheHits+Scalar(i)] = *f
	}
	return v.section(groupCache)
}
