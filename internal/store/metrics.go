package store

import "repro/internal/obs"

// Always-live instruments, attached to whichever registry is default (the
// dsp sparse-counter pattern): counts survive registry swaps, and a server
// that installs its registry after templates opened still sees the totals.
//
//	store.opens            files opened (header decoded and validated)
//	store.sections.loaded  payload sections decoded (lazy faults)
//	store.sections.errors  payload sections rejected: a CRC mismatch, or a
//	                       short read (the file shrank on disk after Open)
//	store.bytes.resident   decoded float64 bytes currently held by open files
var met = struct {
	opens          *obs.Counter
	sectionsLoaded *obs.Counter
	sectionErrors  *obs.Counter
	bytesResident  *obs.Gauge
}{obs.NewCounter(), obs.NewCounter(), obs.NewCounter(), obs.NewGauge()}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		r.Attach("store.opens", met.opens)
		r.Attach("store.sections.loaded", met.sectionsLoaded)
		r.Attach("store.sections.errors", met.sectionErrors)
		r.AttachGauge("store.bytes.resident", met.bytesResident)
	})
}
