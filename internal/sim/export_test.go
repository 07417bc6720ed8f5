package sim

// InputFor inverts FirstStage: the input port connected to intermediate port
// l during slot t.
func InputFor(l int, t Slot, n int) int {
	m := (Slot(l) - t) % Slot(n)
	if m < 0 {
		m += Slot(n)
	}
	return int(m)
}
