package main

import (
	"fmt"
	"os"
	"time"

	"attain/internal/clock"
	"attain/internal/core/compile"
	"attain/internal/core/inject"
	"attain/internal/core/model"
	"attain/internal/netem"
)

// attackCommand returns the validate, describe or run subcommand. All
// three compile the three user-supplied files (system model, attack model,
// attack states) and take the same flags. validate reports compilation and
// cross-validation results; describe also prints the attack textually and
// its state graph in DOT; run starts the proxy and prints, for every
// control-plane connection, the address a switch must dial instead of its
// controller.
func attackCommand(cmd string) func(args []string) error {
	return func(args []string) error {
		fs := newFlagSet(cmd)
		systemPath := fs.String("system", "", "system model file (DSL or XML)")
		attackerPath := fs.String("attacker", "", "attack model file (DSL or XML)")
		attackPath := fs.String("attack", "", "attack states file (DSL or XML)")
		basePort := fs.Int("base-port", 16653, "run: first loopback TCP port for proxy listeners")
		logEvents := fs.Bool("log", true, "run: stream injector events to stdout")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *systemPath == "" || *attackerPath == "" || *attackPath == "" {
			return fmt.Errorf("%s requires -system, -attacker, and -attack", cmd)
		}

		prog, err := compile.CompileFiles(*systemPath, *attackerPath, *attackPath)
		if err != nil {
			return err
		}

		switch cmd {
		case "validate":
			fmt.Printf("ok: attack %q over %d states, %d control-plane connections\n",
				prog.Attack.Name, len(prog.Attack.States), len(prog.System.ControlPlane))
			for _, warning := range prog.Attack.Lint() {
				fmt.Printf("warning: %s\n", warning)
			}
			return nil
		case "describe":
			fmt.Println(prog.System.Summary())
			fmt.Println(prog.Attacker.String())
			fmt.Println()
			fmt.Println(prog.Attack.Describe())
			fmt.Println(prog.Attack.Graph().DOT())
			return nil
		default:
			return runInjector(prog, *basePort, *logEvents)
		}
	}
}

// runInjector starts the proxy over loopback TCP and blocks until SIGINT.
func runInjector(prog *compile.Program, basePort int, logEvents bool) error {
	// Assign each control-plane connection a deterministic loopback port.
	ports := make(map[model.Conn]string, len(prog.System.ControlPlane))
	for i, conn := range prog.System.ControlPlane {
		ports[conn] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	}
	cfg := inject.Config{
		System:    prog.System,
		Attacker:  prog.Attacker,
		Attack:    prog.Attack,
		Transport: netem.TCPTransport{},
		Clock:     clock.New(),
		ProxyAddr: func(conn model.Conn) string { return ports[conn] },
	}
	if logEvents {
		cfg.LogWriter = os.Stdout
	}
	inj, err := inject.New(cfg)
	if err != nil {
		return err
	}
	if err := inj.Start(); err != nil {
		return err
	}
	defer inj.Stop()

	fmt.Printf("attack %q running; point each switch at its proxy address:\n", prog.Attack.Name)
	for _, conn := range prog.System.ControlPlane {
		ctrl, _ := prog.System.ControllerByID(conn.Controller)
		fmt.Printf("  %s: dial %s (proxied to controller %s at %s)\n",
			conn, ports[conn], conn.Controller, ctrl.ListenAddr)
	}
	fmt.Println("press Ctrl-C to stop")

	ctx, stop := interruptContext()
	defer stop()
	<-ctx.Done()

	st := inj.Log().TotalStats()
	fmt.Printf("\nfinal state: %s\n", inj.CurrentState())
	fmt.Printf("messages: seen=%d delivered=%d dropped=%d duplicated=%d injected=%d rule-fires=%d\n",
		st.Seen, st.Delivered, st.Dropped, st.Duplicated, st.Injected, st.RuleFires)
	// Give the log writer a beat to flush streamed lines.
	time.Sleep(50 * time.Millisecond)
	return nil
}
