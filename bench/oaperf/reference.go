package main

import (
	"io"
	"net"
	"time"
)

// The reference exchange is how the harness tells a slow machine from slow
// code. On a shared host, runs of identical code read 20–50 % apart from one
// quarter of an hour to the next: a neighbour's load slows every system
// call, thread wake-up and loopback packet. So around every phase the
// harness times a fixed exchange that uses nothing of this repository — dial
// a loopback listener, send 64 bytes, read them back, close, one after the
// other for a quarter of a second — and each repetition's time-based end-to-end metrics
// are scaled to a nominal machine on which that exchange takes nominalRefUs.
// A change to the repository cannot move the reference; a change in the host
// moves both, and the scaling takes most of it out again. The unscaled
// readings are printed next to the scaled ones and reported as raw.* layer
// metrics, so nothing is hidden by the scaling.
const (
	nominalRefUs = 35.0
	refBytes     = 64
)

// reference is the loopback echo server of the reference exchange.
type reference struct {
	ln     net.Listener
	served chan struct{}
}

func startReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{ln: ln, served: make(chan struct{})}
	go func() {
		defer close(r.served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, refBytes)
				if _, err := io.ReadFull(conn, buf); err == nil {
					_, _ = conn.Write(buf) // a failed echo fails the client's read
				}
			}()
		}
	}()
	return r, nil
}

// exchange times one dial + echo + close.
func (r *reference) exchange() (time.Duration, error) {
	var buf [refBytes]byte
	t0 := time.Now()
	conn, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := conn.Write(buf[:]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// measure runs exchanges back to back for window and returns the median in
// microseconds. It runs between phases, never beside one.
func (r *reference) measure(window time.Duration) (float64, error) {
	var us []float64
	for start := time.Now(); time.Since(start) < window; {
		d, err := r.exchange()
		if err != nil {
			return 0, err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return median(us), nil
}

func (r *reference) close() {
	r.ln.Close()
	<-r.served
}
