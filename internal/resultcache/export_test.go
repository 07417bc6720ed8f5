package resultcache

// Len returns the number of live entries.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	return len(s.index), nil
}
