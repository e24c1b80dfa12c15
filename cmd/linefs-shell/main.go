// Command linefs-shell is an interactive shell over a simulated LineFS
// cluster: each command runs as a client operation in virtual time, so you
// can poke at the DFS — write files, fsync, crash a replica's host, watch
// NICFS flip into isolated mode — from a REPL.
//
//	$ linefs-shell
//	linefs:/> create hello
//	linefs:/> write hello 0 some-data
//	linefs:/> fsync hello
//	linefs:/> crash 1
//	linefs:/> status
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"linefs"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the shell: commands from in, one per line, until quit or end of
// input; everything it prints goes to out. It returns an error only when the
// cluster cannot be brought up or in cannot be read.
func run(in io.Reader, out io.Writer) error {
	opts := linefs.Defaults()
	cl, err := linefs.New(opts)
	if err != nil {
		return err
	}
	var client *linefs.Client
	cl.Run(func(p *linefs.Proc) {
		client, err = cl.Attach(p, 0)
	})
	if err != nil {
		return err
	}
	fds := map[string]int{}

	// do runs one client operation in virtual time.
	do := func(fn func(p *linefs.Proc) error) {
		var opErr error
		ok := cl.Run(func(p *linefs.Proc) { opErr = fn(p) })
		if !ok {
			fmt.Fprintln(out, "error: operation did not complete")
			return
		}
		if opErr != nil {
			fmt.Fprintln(out, "error:", opErr)
		}
	}
	openFD := func(p *linefs.Proc, name string, write bool) (int, error) {
		if fd, ok := fds[name]; ok {
			return fd, nil
		}
		fd, err := client.Open(p, name, write)
		if err != nil {
			return -1, err
		}
		fds[name] = fd
		return fd, nil
	}

	fmt.Fprintln(out, "LineFS shell — type 'help' for commands")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "linefs[%.3fs]:/> ", cl.Now().Seconds())
		if !sc.Scan() {
			return sc.Err()
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		switch args[0] {
		case "help":
			fmt.Fprint(out, `commands:
  ls [dir]              list a directory
  mkdir <path>          create a directory
  create <path>         create a file
  write <path> <off> <text>
  read <path> <off> <n>
  fsync <path>          make the file durable on all replicas
  stat <path>
  rm <path>             unlink a file
  mv <old> <new>        rename
  crash <node>          crash a host OS (1 or 2: replicas)
  recover <node>        reboot a host OS
  sleep <seconds>       advance virtual time
  status                node and cluster state
  quit
`)
		case "quit", "exit":
			return nil
		case "ls":
			dir := "/"
			if len(args) > 1 {
				dir = args[1]
			}
			do(func(p *linefs.Proc) error {
				ents, err := client.ReadDir(p, dir)
				if err != nil {
					return err
				}
				for _, e := range ents {
					fmt.Fprintf(out, "  %s\n", e.Name)
				}
				return nil
			})
		case "mkdir":
			if len(args) < 2 {
				fmt.Fprintln(out, "usage: mkdir <path>")
				continue
			}
			do(func(p *linefs.Proc) error { return client.Mkdir(p, args[1]) })
		case "create":
			if len(args) < 2 {
				fmt.Fprintln(out, "usage: create <path>")
				continue
			}
			do(func(p *linefs.Proc) error {
				fd, err := client.Create(p, args[1])
				if err == nil {
					fds[args[1]] = fd
				}
				return err
			})
		case "write":
			if len(args) < 4 {
				fmt.Fprintln(out, "usage: write <path> <off> <text>")
				continue
			}
			off, _ := strconv.ParseUint(args[2], 10, 64)
			data := strings.Join(args[3:], " ")
			do(func(p *linefs.Proc) error {
				fd, err := openFD(p, args[1], true)
				if err != nil {
					return err
				}
				n, err := client.WriteAt(p, fd, off, []byte(data))
				if err == nil {
					fmt.Fprintf(out, "  wrote %d bytes\n", n)
				}
				return err
			})
		case "read":
			n := -1
			if len(args) >= 4 {
				n, _ = strconv.Atoi(args[3])
			}
			if n < 0 {
				fmt.Fprintln(out, "usage: read <path> <off> <n>")
				continue
			}
			off, _ := strconv.ParseUint(args[2], 10, 64)
			do(func(p *linefs.Proc) error {
				fd, err := openFD(p, args[1], false)
				if err != nil {
					return err
				}
				buf := make([]byte, n)
				got, err := client.ReadAt(p, fd, off, buf)
				if err == nil {
					fmt.Fprintf(out, "  %q\n", buf[:got])
				}
				return err
			})
		case "fsync":
			if len(args) < 2 {
				fmt.Fprintln(out, "usage: fsync <path>")
				continue
			}
			do(func(p *linefs.Proc) error {
				fd, err := openFD(p, args[1], true)
				if err != nil {
					return err
				}
				start := p.Now()
				if err := client.Fsync(p, fd); err != nil {
					return err
				}
				fmt.Fprintf(out, "  durable on all replicas in %v\n", (p.Now() - start).Dur())
				return nil
			})
		case "stat":
			if len(args) < 2 {
				fmt.Fprintln(out, "usage: stat <path>")
				continue
			}
			do(func(p *linefs.Proc) error {
				typ, size, err := client.Stat(p, args[1])
				if err != nil {
					return err
				}
				kind := "file"
				if typ == 2 {
					kind = "dir"
				}
				fmt.Fprintf(out, "  %s: %s, %d bytes\n", args[1], kind, size)
				return nil
			})
		case "rm":
			if len(args) < 2 {
				fmt.Fprintln(out, "usage: rm <path>")
				continue
			}
			do(func(p *linefs.Proc) error { return client.Unlink(p, args[1]) })
		case "mv":
			if len(args) < 3 {
				fmt.Fprintln(out, "usage: mv <old> <new>")
				continue
			}
			do(func(p *linefs.Proc) error { return client.Rename(p, args[1], args[2]) })
		case "crash", "recover":
			if len(args) < 2 {
				fmt.Fprintf(out, "usage: %s <node>\n", args[0])
				continue
			}
			i, err := strconv.Atoi(args[1])
			if err != nil || i < 0 || i >= opts.Nodes {
				fmt.Fprintf(out, "error: no node %q\n", args[1])
				continue
			}
			op, state := cl.CrashHost, "down"
			if args[0] == "recover" {
				op, state = cl.RecoverHost, "up"
			}
			if err := op(i); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintf(out, "  node %d host OS %s\n", i, state)
			}
		case "sleep":
			secs := 1.0
			if len(args) > 1 {
				secs, _ = strconv.ParseFloat(args[1], 64)
			}
			cl.RunFor(time.Duration(secs * float64(time.Second)))
		case "status":
			s := cl.Stats()
			fmt.Fprintf(out, "  virtual time     %v\n", cl.Now())
			fmt.Fprintf(out, "  network bytes    %d\n", s.NetworkBytes)
			fmt.Fprintf(out, "  published bytes  %d\n", s.PublishedBytes)
			fmt.Fprintf(out, "  replicated bytes %d\n", s.ReplicatedRawBytes)
			for i := 0; i < opts.Nodes; i++ {
				iso := ""
				if cl.Isolated(i) {
					iso = " [NICFS isolated: host down]"
				}
				fmt.Fprintf(out, "  node%d%s\n", i, iso)
			}
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", args[0])
		}
	}
}
