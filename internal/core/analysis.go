package core

// ScheduleStats summarizes how a schedule distributes utility over the
// slots of one period.
type ScheduleStats struct {
	// SlotUtilities holds U(S(t)) per slot.
	SlotUtilities []float64
	// Total is Σ_t U(S(t)).
	Total float64
	// MinSlot and MaxSlot are the extreme slot utilities.
	MinSlot, MaxSlot float64
	// Fairness is Jain's index over the slot utilities
	// ((Σx)² / (T·Σx²)); 1 means perfectly even service, 1/T means all
	// utility packed into one slot.
	Fairness float64
}

// Stats evaluates the schedule's per-slot utility distribution.
func (s *Schedule) Stats(factory OracleFactory) ScheduleStats {
	stats := ScheduleStats{SlotUtilities: make([]float64, s.period)}
	var sum, sumSq float64
	for t := 0; t < s.period; t++ {
		o := factory()
		for _, v := range s.ActiveAt(t) {
			o.Add(v)
		}
		u := o.Value()
		stats.SlotUtilities[t] = u
		sum += u
		sumSq += u * u
		if t == 0 || u < stats.MinSlot {
			stats.MinSlot = u
		}
		if u > stats.MaxSlot {
			stats.MaxSlot = u
		}
	}
	stats.Total = sum
	if sumSq > 0 {
		stats.Fairness = sum * sum / (float64(s.period) * sumSq)
	}
	return stats
}
