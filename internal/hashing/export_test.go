package hashing

// PortFor returns the intermediate port assigned to VOQ (i, j).
func (s *Switch) PortFor(i, j int) int { return s.hash[i][j] }
