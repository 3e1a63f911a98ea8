// Package attack implements the offensive side of the paper: the
// attacker strategies (single-, double- and N-sided, adaptive and
// refresh-synchronized) over the controller's hammer kernel, the
// mapping-aware flip-templating scan an attacker runs to find
// exploitable bits (ScanSystem), and end-to-end simulations of the
// Project-Zero-style page-table-entry privilege escalation and the
// cross-VM covictim scenario (RunPrivEscSystem, RunCrossVMSystem).
// All of it runs against the simulated memory system through the
// ordinary controller access path — the attacker has no powers a
// user-level program would not have, except where a scenario
// explicitly grants them (e.g. Drammer-style contiguous placement).
package attack
