package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared host the CPU time the fleet spends
// per row moves with the neighbours' load by a quarter or more within
// minutes: not only plain computation slows down, but also the wake-ups,
// system calls and loopback TCP that a lightly loaded server spends much
// of its time in. The benchmark therefore also measures a fixed exchange of
// its own that has the same shape, and reports fleet CPU times scaled to
// the speed at which that exchange takes calibRefNs. The exchange is built
// only from the standard library and data the benchmark makes itself, so
// nothing the program under test does changes its work.
//
// One exchange sends calibRows by calibCols feature values as JSON over a
// loopback TCP connection to an echo thread, which decodes the rows and
// sends them back encoded; both ends then sleep until the next exchange, so
// each one wakes them from idle as open-loop traffic wakes the fleet. The
// client and the echo each run on a locked OS thread and the exchange's
// cost is the CPU time of both threads.
//
// The exchanges run every calibPeriod while the benchmark launches fleets
// and drives the open loop, so a launch or a window is scaled by the host's
// speed at that time. They share the host with the fleet, but their work
// and pace are fixed and nothing the fleet sends or answers reaches them,
// unlike the load generator's own CPU time, which depends on the size and
// pacing of the fleet's responses. At about 4% of one CPU they add a small,
// constant load.
const (
	calibRows = 4
	calibCols = 101
	// calibRefNs is the CPU time of one exchange at the reference host
	// speed: about what a 2-vCPU cloud VM spends while it serves
	// fleet-unique16 on a quiet day.
	calibRefNs = 8e5
	// calibPeriod is the time between exchanges.
	calibPeriod = 20 * time.Millisecond
)

// threadCPUNs is the calling thread's CPU time in nanoseconds. Unlike
// schedstat, which the kernel only brings up to date at a tick or a context
// switch, the thread CPU clock includes the running slice. The caller must
// be locked to its OS thread.
func threadCPUNs() (int64, error) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return ts.Nano(), nil
}

// calibSample is one exchange: when it started and the CPU time it took.
type calibSample struct {
	at time.Time
	ns float64
}

// calibration runs an exchange every period on two locked threads until
// finish is called.
type calibration struct {
	stop    chan struct{}
	done    chan struct{}
	samples []calibSample
	err     error
}

func startCalibration(period time.Duration) *calibration {
	c := &calibration{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.err = c.run(period)
	}()
	return c
}

// finish stops the exchanges and waits for both threads.
func (c *calibration) finish() ([]calibSample, error) {
	close(c.stop)
	<-c.done
	return c.samples, c.err
}

func (c *calibration) run(period time.Duration) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := rand.New(rand.NewPCG(1, 2))
	rows := make([][]float64, calibRows)
	for i := range rows {
		rows[i] = make([]float64, calibCols)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64() * 1e3
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		return err
	}
	peer, err := l.Accept()
	l.Close()
	if err != nil {
		conn.Close()
		return err
	}
	echoed := make(chan error, 1)
	go func() { echoed <- echo(peer) }()
	// Closing the client's end ends the echo.
	err = c.exchanges(conn, rows, period)
	conn.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	return err
}

func (c *calibration) exchanges(conn net.Conn, rows [][]float64, period time.Duration) error {
	rd := bufio.NewReader(conn)
	var back [][]float64
	var echoPrev int64
	next := time.Now()
	for i := 0; ; i++ {
		select {
		case <-c.stop:
			return nil
		case <-time.After(time.Until(next)):
		}
		next = next.Add(period)
		at := time.Now()
		a, err := threadCPUNs()
		if err != nil {
			return err
		}
		msg, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		if err := writeFrame(conn, msg); err != nil {
			return err
		}
		reply, err := readFrame(rd)
		if err != nil {
			return err
		}
		// The echo puts its thread's CPU time in front of the rows.
		echoNow := int64(binary.LittleEndian.Uint64(reply))
		back = back[:0]
		if err := json.Unmarshal(reply[8:], &back); err != nil {
			return err
		}
		b, err := threadCPUNs()
		if err != nil {
			return err
		}
		if i > 0 { // the first exchange has no earlier echo time to start from
			c.samples = append(c.samples, calibSample{at: at, ns: float64(b - a + echoNow - echoPrev)})
		}
		echoPrev = echoNow
	}
}

// echo answers each frame with its thread's CPU time and the rows decoded
// and encoded again, until the client closes the connection.
func echo(conn net.Conn) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer conn.Close()
	rd := bufio.NewReader(conn)
	var rows [][]float64
	for {
		msg, err := readFrame(rd)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		rows = rows[:0]
		if err := json.Unmarshal(msg, &rows); err != nil {
			return err
		}
		enc, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		ns, err := threadCPUNs()
		if err != nil {
			return err
		}
		out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(enc)), uint64(ns))
		if err := writeFrame(conn, append(out, enc...)); err != nil {
			return err
		}
	}
}

func writeFrame(w io.Writer, msg []byte) error {
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(msg)), uint32(len(msg)))
	_, err := w.Write(append(frame, msg...))
	return err
}

func readFrame(rd *bufio.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(rd, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	msg := make([]byte, n)
	_, err := io.ReadFull(rd, msg)
	return msg, err
}

// calibNsBetween is the median CPU time of the exchanges that started in
// [from, to); NaN when none did.
func calibNsBetween(samples []calibSample, from, to time.Time) float64 {
	var ns []float64
	for _, c := range samples {
		if !c.at.Before(from) && c.at.Before(to) {
			ns = append(ns, c.ns)
		}
	}
	if len(ns) == 0 {
		return math.NaN()
	}
	return medianFloat(ns)
}
