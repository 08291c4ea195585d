//===- aref_protocol.cpp - The Fig. 4 semantics, interactively ----------------//
//
// Walks sem::SlotMonitor, the aref slot machine both simulator engines run,
// step by step: the legal put -> get -> consumed handshake on a 2-slot
// ring, a tuple slot two TMA writes fill, and the protocol violations the
// mbarriers exist to prevent — then shows the happens-before chain the
// handshake induces.
//
//===----------------------------------------------------------------------===//

#include "sem/ArefSemantics.h"
#include "sem/HappensBefore.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa::sem;

namespace {

void show(const char *What, const std::string &Violation,
          const SlotMonitor &M) {
  std::printf("  %-26s -> %-9s slot state: %s\n", What,
              Violation.empty() ? "ok" : "VIOLATION", M.name());
  if (!Violation.empty())
    std::printf("      %s\n", Violation.c_str());
}

} // namespace

int main() {
  std::printf("A 2-slot aref ring (D = 2), one writer and one reader "
              "(agent 1) per slot:\n\n");
  std::vector<SlotMonitor> Ring(2);

  std::printf("The legal pipeline (producer one slot ahead):\n");
  show("write slot 0 (put)", Ring[0].write(1, 0, 0), Ring[0]);
  show("write slot 1 (put)", Ring[1].write(1, 0, 1), Ring[1]);
  show("read slot 0 (get)", Ring[0].read(1, 0, 0), Ring[0]);
  show("release slot 0 (consumed)", Ring[0].release(1, 1, 0, 0), Ring[0]);
  show("write slot 0 again", Ring[0].write(1, 0, 0), Ring[0]);

  std::printf("\nA tuple slot filled by two TMA writes:\n");
  SlotMonitor Tuple;
  show("first write", Tuple.write(2, 1, 0), Tuple);
  show("read before the second", Tuple.read(1, 1, 0), Tuple);
  show("second write", Tuple.write(2, 1, 0), Tuple);
  show("read", Tuple.read(1, 1, 0), Tuple);

  std::printf("\nWhat the hardware mbarriers protect against:\n");
  SlotMonitor Bad;
  show("read before any write", Bad.read(1, 2, 0), Bad);
  show("release before any read", Bad.release(1, 1, 2, 0), Bad);
  Bad.write(1, 2, 0);
  show("write while full", Bad.write(1, 2, 0), Bad);

  std::printf("\nThe happens-before chain (producer agent 0, consumer 1):\n");
  HappensBeforeTracker HB(2);
  std::printf("  write(0) .............. %s\n",
              HB.recordWrite(0, 0, 0).empty() ? "ordered" : "RACE");
  HB.recordPut(0, 0, 0);
  HB.recordGet(1, 0, 0);
  std::printf("  read(1) after get ..... %s\n",
              HB.recordRead(1, 0, 0).empty() ? "ordered" : "RACE");
  HB.recordConsumed(1, 0, 0);
  HB.recordAcquireEmpty(0, 0, 0);
  std::printf("  reuse write(0) ........ %s\n",
              HB.recordWrite(0, 0, 0).empty() ? "ordered" : "RACE");

  HappensBeforeTracker Racy(2);
  Racy.recordWrite(0, 0, 0);
  Racy.recordPut(0, 0, 0);
  std::printf("  read without acquire .. %s\n",
              Racy.recordRead(1, 0, 0).empty() ? "ordered" : "RACE (caught)");
  return 0;
}
