package ufs

// PendingFrames reports how many full frames are currently
// waiting at input i.
func (s *Switch) PendingFrames(i int) int {
	c := 0
	for j := 0; j < s.n; j++ {
		c += s.sp.VOQLen(i, j) / s.n
	}
	return c
}
