package render

import "repro/internal/vcity"

// SetCity points r at another city of the same resolution. Product code
// binds a Renderer to one city for life; the identity tests walk one
// Renderer across cities to show that the static layer is keyed on the
// tile it was built from, not on the camera alone.
func (r *Renderer) SetCity(city *vcity.City) { r.city = city }
