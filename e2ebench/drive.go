package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"cool/internal/controlplane"
)

// answerTimeout bounds how long a stream waits for coold after its
// last due time. A request still unanswered then is a failed
// operation (code "transport"), as is every request the sender could
// not write.
const answerTimeout = 90 * time.Second

// keepAnswer reports whether an answer's payload is kept for
// verification; schedule-query answers are large and only counted.
func keepAnswer(o *op) bool { return o.label != "query-schedule" }

// runStream drives one connection open-loop. A sender goroutine writes
// each op's frame at its due time, never waiting for answers; this
// goroutine reads the answers, which coold returns in request order.
// Latency is measured from the due time, so a stall also charges the
// requests queued behind it. Client-side spans (write, wait, read,
// decode) are recorded only when traced; every run takes the send
// time and the time each write returned, which the generator's lag
// needs.
func runStream(c *conn, ops []*op, start time.Time, traced bool) {
	sentc := make(chan *op, len(ops)) // sized to the number of sends
	last := time.Duration(0)
	if len(ops) > 0 {
		last = ops[len(ops)-1].due
	}
	c.nc.SetDeadline(start.Add(last + answerTimeout))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(sentc)
		free := time.Duration(0) // when the previous write returned
		for i, o := range ops {
			sleepUntil(start.Add(o.due))
			o.sent = time.Since(start)
			o.lag = o.sent - max(o.due, free)
			if _, err := c.nc.Write(o.frame); err != nil {
				// Nothing more can be written: this op and every later
				// one fail.
				for _, rest := range ops[i:] {
					rest.code, rest.recv = "transport", -1
				}
				return
			}
			free = time.Since(start)
			if traced {
				o.write = free - o.sent
			}
			sentc <- o
		}
	}()
	prev := time.Duration(0)
	for o := range sentc {
		var (
			t       controlplane.FrameType
			payload []byte
			hdrAt   time.Duration
			err     error
		)
		if traced {
			t, payload, hdrAt, err = c.readFrameTimed(start)
		} else {
			t, payload, err = c.readFrame()
		}
		now := time.Since(start)
		if err != nil {
			o.code = "transport"
			o.recv = -1
			for rest := range sentc { // drain; nothing more can be read
				rest.code, rest.recv = "transport", -1
			}
			break
		}
		o.recv = now
		var t0 time.Time
		if traced {
			from := max(o.sent+o.write, prev)
			o.wait = hdrAt - from
			o.read = now - hdrAt
			t0 = time.Now()
		}
		o.code = errorCode(t, payload)
		if keepAnswer(o) || o.code != "" {
			o.resp = append([]byte(nil), payload...)
		}
		if traced {
			o.decode = time.Since(t0)
		}
		prev = now
	}
	wg.Wait()
}

// sleepUntil blocks until t in a nanosleep system call. The runtime's
// own timers wake an idle process through epoll with millisecond
// granularity, which would make the generator up to a millisecond late
// on every request; the kernel's high-resolution timer is late by tens
// of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// readFrameTimed reads one frame and also returns when its header
// arrived, splitting the client's wait from its payload read.
func (c *conn) readFrameTimed(start time.Time) (controlplane.FrameType, []byte, time.Duration, error) {
	if _, err := c.r.Peek(frameHeader); err != nil {
		return 0, nil, 0, err
	}
	hdrAt := time.Since(start)
	t, payload, err := c.readFrame()
	return t, payload, hdrAt, err
}

// push is one schedule push the watcher received.
type push struct {
	seq    uint64
	recv   time.Duration
	decode time.Duration // traced runs
}

// watcher reads a subscribed connection's push stream. It parses only
// the fingerprint/Seq prefix of each push on the timed path and keeps
// the last payload per deployment for verification afterwards; traced
// runs also time the prefix parse.
type watcher struct {
	c      *conn
	start  time.Time
	traced bool
	done   chan struct{}

	mu     sync.Mutex
	pushes map[string][]push
	last   map[string][]byte
	count  int
	bad    int // frames that were not parseable pushes
}

func startWatcher(c *conn, start time.Time, traced bool) *watcher {
	w := &watcher{c: c, start: start, traced: traced, done: make(chan struct{}),
		pushes: make(map[string][]push), last: make(map[string][]byte)}
	c.nc.SetDeadline(time.Time{})
	go w.loop()
	return w
}

func (w *watcher) loop() {
	defer close(w.done)
	for {
		t, payload, err := w.c.readFrame()
		now := time.Since(w.start)
		if err != nil {
			return
		}
		var t0 time.Time
		if w.traced {
			t0 = time.Now()
		}
		fp, seq, ok := pushPrefix(payload)
		var dec time.Duration
		if w.traced {
			dec = time.Since(t0)
		}
		w.mu.Lock()
		if t != controlplane.FramePush || !ok {
			w.bad++
		} else {
			w.pushes[fp] = append(w.pushes[fp], push{seq: seq, recv: now, decode: dec})
			w.last[fp] = append(w.last[fp][:0], payload...)
			w.count++
		}
		w.mu.Unlock()
	}
}

// await waits until want pushes have arrived (or the timeout passes),
// then closes the connection and waits for the reader to exit.
func (w *watcher) await(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var got int
	for {
		w.mu.Lock()
		got = w.count
		w.mu.Unlock()
		if got >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.c.close()
	<-w.done
	if got < want {
		return fmt.Errorf("watcher received %d of %d pushes", got, want)
	}
	return nil
}
