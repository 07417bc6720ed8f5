package registry

// unregister removes the named entry, so a test can take back what it
// registered.
func (t *Table[T]) unregister(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, name)
}
