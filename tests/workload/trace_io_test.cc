#include "workload/trace_io.h"

#include <gtest/gtest.h>

namespace gfair::workload {
namespace {

TEST(TraceIoTest, RoundTrip) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId alice = users.Create("alice", 2.0).id;
  const UserId bob = users.Create("bob").id;

  std::vector<TraceFileEntry> original;
  original.push_back({TraceEntry{alice, zoo.GetByName("VAE").id, 2, 1234.5, Minutes(5)},
                      1.0});
  original.push_back(
      {TraceEntry{bob, zoo.GetByName("ResNet-50").id, 8, 99.25, Hours(2)}, 3.0});

  const std::string csv = SerializeTrace(original, users, zoo);

  UserTable parsed_users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(csv, zoo, &parsed_users, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed_users.Get(parsed[0].entry.user).name, "alice");
  EXPECT_EQ(parsed_users.Get(parsed[1].entry.user).name, "bob");
  EXPECT_EQ(parsed[0].entry.model, zoo.GetByName("VAE").id);
  EXPECT_EQ(parsed[0].entry.gang_size, 2);
  EXPECT_NEAR(parsed[0].entry.total_minibatches, 1234.5, 1e-6);
  EXPECT_EQ(parsed[0].entry.arrival, Minutes(5));
  EXPECT_NEAR(parsed[1].weight, 3.0, 1e-6);
}

TEST(TraceIoTest, RoundTripKeepsTicketsAndGroups) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId alice = users.CreateInGroup("alice", "team", 2.5).id;
  const UserId bob = users.Create("bob", 1.0 / 3.0).id;
  std::vector<TraceFileEntry> original;
  // Bob's job comes first; the user lines still restore the table's order.
  original.push_back({TraceEntry{bob, zoo.GetByName("VAE").id, 1, 10.0, kTimeZero}, 1.0});
  original.push_back({TraceEntry{alice, zoo.GetByName("VAE").id, 2, 20.0, Minutes(1)}, 1.0});

  UserTable parsed_users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(SerializeTrace(original, users, zoo), zoo, &parsed_users, &parsed,
                         &error))
      << error;
  ASSERT_EQ(parsed_users.size(), 2u);
  EXPECT_EQ(parsed_users.Get(alice).name, "alice");
  EXPECT_EQ(parsed_users.Get(alice).group, "team");
  EXPECT_EQ(parsed_users.Get(alice).tickets, Tickets(2.5));
  EXPECT_EQ(parsed_users.Get(bob).name, "bob");
  EXPECT_EQ(parsed_users.Get(bob).group, "");
  EXPECT_EQ(parsed_users.Get(bob).tickets, Tickets(1.0 / 3.0));  // bit for bit
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].entry.user, bob);
  EXPECT_EQ(parsed[1].entry.user, alice);
}

TEST(TraceIoTest, UserLineKeepsAnExistingUser) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId existing = users.Create("alice", 5.0).id;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace("#user,alice,2,team\narrival_ms,user,model,gang_size,minibatches\n"
                         "0,alice,VAE,1,10\n",
                         zoo, &users, &parsed, &error))
      << error;
  EXPECT_EQ(users.size(), 1u);
  EXPECT_EQ(users.Get(existing).tickets, Tickets(5.0));
  EXPECT_EQ(users.Get(existing).group, "");
}

TEST(TraceIoTest, BadUserLinesCarryLineNumbers) {
  const ModelZoo& zoo = ModelZoo::Default();
  const char* bad[] = {
      "# fine\n#user,a,0,g\n",   // tickets must be positive
      "# fine\n#user,a,nan,\n",  // and finite
      "# fine\n#user,,1,g\n",    // a name is required
      "# fine\n#user,a,1\n",     // four fields
      "# fine\n#user,a,1,\n",    // duplicate, on line 3 below
  };
  for (const char* head : bad) {
    std::string csv = head;
    if (csv.find("#user,a,1,\n") != std::string::npos) {
      csv += "#user,a,2,\n";
    }
    csv += "arrival_ms,user,model,gang_size,minibatches\n0,a,VAE,1,10\n";
    UserTable users;
    std::vector<TraceFileEntry> parsed;
    std::string error;
    EXPECT_FALSE(ParseTrace(csv, zoo, &users, &parsed, &error)) << csv;
    const bool duplicate = csv.find("#user,a,2,") != std::string::npos;
    EXPECT_EQ(error.rfind(duplicate ? "line 3: duplicate user line" : "line 2: bad user line", 0),
              0u)
        << error;
  }
}

TEST(TraceIoTest, ReusesExistingUsers) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId existing = users.Create("alice", 5.0).id;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "arrival_ms,user,model,gang_size,minibatches\n0,alice,VAE,1,10\n", zoo, &users,
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].entry.user, existing);
  EXPECT_EQ(users.size(), 1u);
  EXPECT_DOUBLE_EQ(users.Get(existing).tickets.raw(), 5.0);  // tickets untouched
}

TEST(TraceIoTest, SkipsCommentsAndBlankLines) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  const std::string csv =
      "# a comment\n"
      "arrival_ms,user,model,gang_size,minibatches,weight\n"
      "\n"
      "0,a,VAE,1,10,1\n"
      "# trailing comment\n";
  ASSERT_TRUE(ParseTrace(csv, zoo, &users, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(TraceIoTest, HandlesWindowsLineEndings) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "arrival_ms,user,model,gang_size,minibatches\r\n5,a,VAE,1,10\r\n", zoo, &users,
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].entry.arrival, 5);
}

TEST(TraceIoTest, ErrorsCarryLineNumbers) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;

  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n0,a,NoSuchModel,1,10\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("NoSuchModel"), std::string::npos);

  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n-5,a,VAE,1,10\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("arrival"), std::string::npos);

  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n0,a,VAE,0,10\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("gang_size"), std::string::npos);

  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n0,a,VAE,1,-1\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("minibatches"), std::string::npos);

  // Out of int64 range: strtoll would clamp it to LLONG_MAX.
  EXPECT_FALSE(ParseTrace(
      "arrival_ms,user,model,gang_size,minibatches\n99999999999999999999,a,VAE,1,10\n", zoo,
      &users, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("arrival"), std::string::npos);

  // Finite, but its run time in milliseconds overflows int64.
  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n0,a,VAE,1,1e300\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("minibatches"), std::string::npos);

  EXPECT_FALSE(ParseTrace("bad,header\n", zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("header"), std::string::npos);

  EXPECT_FALSE(ParseTrace("", zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("empty"), std::string::npos);
}

TEST(TraceIoTest, WrongFieldCountRejected) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  EXPECT_FALSE(ParseTrace("arrival_ms,user,model,gang_size,minibatches\n0,a,VAE,1\n",
                          zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("fields"), std::string::npos);
}

TEST(TraceIoTest, GeneratorTraceSerializes) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId a = users.Create("a").id;
  std::vector<UserWorkloadSpec> specs(1);
  specs[0].name = "a";
  specs[0].max_jobs = 20;
  specs[0].stop = Hours(100);
  TraceGenerator gen(zoo, 3);
  const auto trace = gen.Generate(specs, {a});
  const std::string csv = SerializeTrace(trace, users, zoo);

  UserTable users2;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(csv, zoo, &users2, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), trace.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].entry.arrival, trace[i].arrival);
    EXPECT_EQ(parsed[i].entry.model, trace[i].model);
    EXPECT_EQ(parsed[i].entry.gang_size, trace[i].gang_size);
    EXPECT_NEAR(parsed[i].entry.total_minibatches, trace[i].total_minibatches, 1e-3);
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId a = users.Create("a").id;
  std::vector<TraceFileEntry> entries = {
      {TraceEntry{a, zoo.GetByName("DCGAN").id, 4, 500.0, 0}, 2.0}};
  const std::string path = ::testing::TempDir() + "/gfair_trace_test.csv";
  ASSERT_TRUE(WriteTraceFile(path, entries, users, zoo));

  UserTable users2;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, zoo, &users2, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].entry.gang_size, 4);
  EXPECT_NEAR(parsed[0].weight, 2.0, 1e-6);
}

TEST(TraceIoTest, NonFiniteNumbersRejected) {
  // strtod happily parses "nan" and "inf" — and nan even slips past a
  // `value <= 0` check because every comparison against nan is false. A nan
  // minibatch count would poison every progress comparison downstream.
  const ModelZoo& zoo = ModelZoo::Default();
  const char* bad_minibatches[] = {"nan",  "NaN",  "inf",       "INF",
                                   "-inf", "nan(0x1)", "infinity"};
  for (const char* value : bad_minibatches) {
    UserTable users;
    std::vector<TraceFileEntry> parsed;
    std::string error;
    const std::string csv = std::string("arrival_ms,user,model,gang_size,minibatches\n") +
                            "0,a,VAE,1," + value + "\n";
    EXPECT_FALSE(ParseTrace(csv, zoo, &users, &parsed, &error)) << value;
    EXPECT_NE(error.find("minibatches"), std::string::npos) << error;
  }

  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  EXPECT_FALSE(
      ParseTrace("arrival_ms,user,model,gang_size,minibatches,weight\n0,a,VAE,1,10,nan\n",
                 zoo, &users, &parsed, &error));
  EXPECT_NE(error.find("weight"), std::string::npos) << error;
}

TEST(TraceIoTest, LongNamesRoundTrip) {
  // A row longer than SerializeTrace's 256-byte stack buffer used to be
  // silently truncated mid-field.
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const std::string long_name(300, 'u');
  const UserId user = users.Create(long_name).id;
  const std::vector<TraceFileEntry> entries = {
      {TraceEntry{user, zoo.GetByName("ResNet-50").id, 8, 1234.5, Minutes(3)}, 2.5}};

  const std::string csv = SerializeTrace(entries, users, zoo);

  UserTable parsed_users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseTrace(csv, zoo, &parsed_users, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed_users.Get(parsed[0].entry.user).name, long_name);
  EXPECT_EQ(parsed[0].entry.model, zoo.GetByName("ResNet-50").id);
  EXPECT_EQ(parsed[0].entry.gang_size, 8);
  EXPECT_NEAR(parsed[0].entry.total_minibatches, 1234.5, 1e-6);
  EXPECT_NEAR(parsed[0].weight, 2.5, 1e-6);
}

TEST(TraceIoTest, DelimiterInNameDies) {
  // The format has no quoting, so a user name carrying the delimiter (or a
  // line break) would shift every later column on parse. Serialization must
  // refuse rather than emit a trace that parses into garbage.
  const ModelZoo& zoo = ModelZoo::Default();
  UserTable users;
  const UserId sneaky = users.Create("alice,bob").id;
  const std::vector<TraceFileEntry> entries = {
      {TraceEntry{sneaky, zoo.GetByName("VAE").id, 1, 10.0, 0}, 1.0}};
  EXPECT_DEATH(SerializeTrace(entries, users, zoo), "delimiter");

  UserTable users2;
  const UserId multiline = users2.Create("eve\nmallory").id;
  const std::vector<TraceFileEntry> entries2 = {
      {TraceEntry{multiline, zoo.GetByName("VAE").id, 1, 10.0, 0}, 1.0}};
  EXPECT_DEATH(SerializeTrace(entries2, users2, zoo), "delimiter");
}

TEST(TraceIoTest, MissingFileReportsError) {
  UserTable users;
  std::vector<TraceFileEntry> parsed;
  std::string error;
  EXPECT_FALSE(ReadTraceFile("/no/such/file.csv", workload::ModelZoo::Default(), &users,
                             &parsed, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace gfair::workload
