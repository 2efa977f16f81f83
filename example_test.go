package snmpv3fp_test

import (
	"context"
	"fmt"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/labsim"
	"snmpv3fp/internal/usm"
)

// ExampleProbeContext shows the paper's one-packet measurement primitive against a
// live agent: no credentials, yet the engine identifiers come back.
func ExampleProbeContext() {
	agent, err := labsim.Start(labsim.Config{
		OS:        labsim.CiscoIOS,
		Community: "pass123", // v2c community implicitly enables v3 discovery
		EngineID:  engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 0x31, 0xdb, 0x80}),
		Boots:     148,
		BootTime:  time.Now().Add(-time.Hour),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer agent.Close()

	tr, err := snmpv3fp.NewUDPTransport(agent.Addr().Port())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer tr.Close()

	obs, err := snmpv3fp.ProbeContext(context.Background(), tr, agent.Addr().Addr(), 1, 2*time.Second)
	if err != nil {
		fmt.Println(err)
		return
	}
	fp := snmpv3fp.FingerprintEngineID(obs.EngineID)
	fmt.Printf("engine ID 0x%x\n", obs.EngineID)
	fmt.Printf("boots %d, vendor %s (via %s)\n", obs.EngineBoots, fp.VendorLabel(), fp.Source)
	// Output:
	// engine ID 0x8000000903588d0931db80
	// boots 148, vendor Cisco (via oui)
}

// ExampleClassifyEngineID classifies the paper's Figure 3 Brocade engine ID.
func ExampleClassifyEngineID() {
	id := snmpv3fp.ClassifyEngineID([]byte{0x80, 0x00, 0x07, 0xc7, 0x03, 0x74, 0x8e, 0xf8, 0x31, 0xdb, 0x80})
	fmt.Println(id.Format, id.Enterprise, id.EnterpriseName())
	mac, _ := id.MAC()
	fmt.Printf("%02x:%02x:%02x:%02x:%02x:%02x\n", mac[0], mac[1], mac[2], mac[3], mac[4], mac[5])
	// Output:
	// mac 1991 Foundry
	// 74:8e:f8:31:db:80
}

// ExampleCrackUSMPassword demonstrates the Section 8 offline attack: one
// captured authenticated message plus the (discovery-disclosed) engine ID
// suffice to brute-force the password.
func ExampleCrackUSMPassword() {
	engineID := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	user := labsim.V3User{Name: "ops", Protocol: usm.AuthSHA1, Password: "cisco123"}
	captured, err := labsim.NewAuthenticatedGet(user, engineID, 3, 1000, 1, []uint32{1, 3, 6, 1, 2, 1, 1, 1, 0})
	if err != nil {
		fmt.Println(err)
		return
	}
	pw, tried, ok := snmpv3fp.CrackUSMPassword(captured, snmpv3fp.AuthSHA1,
		[]string{"admin", "public", "cisco123"})
	fmt.Println(pw, tried, ok)
	// Output:
	// cisco123 3 true
}
