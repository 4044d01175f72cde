package core

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// scheduleJSON is the wire form of a Schedule, used to persist computed
// schedules and to ship them through the dissemination protocol. It is
// UnmarshalJSON's target; MarshalJSON writes the same bytes by hand.
type scheduleJSON struct {
	Mode   string `json:"mode"`
	Period int    `json:"period"`
	Assign []int  `json:"assign"`
}

// MarshalJSON implements json.Marshaler. It writes exactly what
// encoding/json writes for scheduleJSON — a nil assignment as null —
// with strconv instead of reflection, since every served schedule
// passes through here. Mode names need no escaping.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 48+len(s.assign)*(len(strconv.Itoa(s.period))+2))
	b = append(b, `{"mode":"`...)
	b = append(b, s.mode.String()...)
	b = append(b, `","period":`...)
	b = strconv.AppendInt(b, int64(s.period), 10)
	b = append(b, `,"assign":`...)
	if s.assign == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range s.assign {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler, validating the decoded
// schedule exactly like NewSchedule.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var w scheduleJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("core: decoding schedule: %w", err)
	}
	var mode Mode
	switch w.Mode {
	case ModePlacement.String():
		mode = ModePlacement
	case ModeRemoval.String():
		mode = ModeRemoval
	default:
		return fmt.Errorf("core: unknown schedule mode %q", w.Mode)
	}
	decoded, err := NewSchedule(mode, w.Period, w.Assign)
	if err != nil {
		return err
	}
	*s = Schedule{mode: decoded.mode, period: decoded.period, assign: decoded.assign}
	return nil
}
