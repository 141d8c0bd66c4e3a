package agg

// Parked reports whether s's aggregator thread is parked, for tests
// that stage work at the moment the thread depends on being woken.
func Parked(s Strategy) bool {
	var d *driver
	switch s := s.(type) {
	case *Aggregator:
		d = s.driver
	case *Archive:
		d = s.driver
	}
	return d.work.Parked() == 1
}
